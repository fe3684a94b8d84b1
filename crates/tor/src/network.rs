//! The in-process Tor network: consensus, hidden-service directories, and
//! the rendezvous handshake.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::address::OnionAddress;
use crate::circuit::Circuit;
use crate::error::TorError;
use crate::fault::{Fault, FaultPlan};
use crate::relay::{Relay, RelayFlags, RelayId};

/// A fault plan shared between the network and all channels built on it.
type SharedFaultPlan = Arc<Mutex<FaultPlan>>;

/// Locks a mutex with the workspace poisoning policy: every value behind
/// these locks is updated whole by each holder, so a panicked former
/// holder is survivable.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Observability handles for fault injection, cloned into every channel
/// built on the network. Counts are recorded out-of-band: no simulation
/// path reads them back, so attaching an observer never changes behaviour.
#[derive(Debug, Clone)]
struct FaultObs {
    injected: crowdtz_obs::Counter,
    by_kind: [crowdtz_obs::Counter; 6],
}

impl FaultObs {
    fn new(observer: &crowdtz_obs::Observer) -> FaultObs {
        FaultObs {
            injected: observer.counter("tor.fault.injected"),
            by_kind: Fault::ALL.map(|f| observer.counter(&format!("tor.fault.{f}"))),
        }
    }

    fn record(&self, fault: Fault) {
        self.injected.inc();
        if let Some(idx) = Fault::ALL.iter().position(|f| *f == fault) {
            self.by_kind[idx].inc();
        }
    }
}

/// The handler a hidden service runs: a request/response function.
type Handler = Arc<dyn Fn(&[u8]) -> Vec<u8> + Send + Sync>;

/// A hidden service awaiting publication: a name (used to derive the key
/// and thus the onion address) and a request handler.
#[derive(Clone)]
pub struct HiddenService {
    address: OnionAddress,
    seed: u64,
    handler: Handler,
}

impl HiddenService {
    /// Creates a hidden service whose onion address is derived from `name`
    /// (standing in for the service key pair).
    ///
    /// The handler is the service's application logic — in this workspace,
    /// a Dark Web forum answering page requests.
    pub fn create<F>(name: &str, seed: u64, handler: F) -> HiddenService
    where
        F: Fn(&[u8]) -> Vec<u8> + Send + Sync + 'static,
    {
        HiddenService {
            address: OnionAddress::derive(name.as_bytes()),
            seed,
            handler: Arc::new(handler),
        }
    }

    /// The service's onion address.
    pub fn address(&self) -> OnionAddress {
        self.address
    }
}

impl fmt::Debug for HiddenService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HiddenService")
            .field("address", &self.address)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

/// The descriptor a hidden service publishes to the HS directories:
/// its address and chosen introduction points. Contains **no** location
/// information about the service host.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceDescriptor {
    address: OnionAddress,
    introduction_points: Vec<RelayId>,
}

impl ServiceDescriptor {
    /// The service address.
    pub fn address(&self) -> OnionAddress {
        self.address
    }

    /// The introduction point relays.
    pub fn introduction_points(&self) -> &[RelayId] {
        &self.introduction_points
    }
}

/// The simulated Tor network: a relay consensus, hidden-service
/// directories, and the registry of running services.
pub struct TorNetwork {
    relays: Arc<Vec<Relay>>,
    descriptors: HashMap<OnionAddress, ServiceDescriptor>,
    services: HashMap<OnionAddress, (Handler, Circuit)>,
    fault_plan: Option<SharedFaultPlan>,
    obs: Option<FaultObs>,
}

impl TorNetwork {
    /// Builds a network with `n` relays (deterministic from `seed`).
    ///
    /// Roughly half the relays get the guard flag, a third the exit flag,
    /// a quarter the HSDir flag, with bandwidths spread over two orders of
    /// magnitude — a coarse sketch of the real consensus the paper's §II
    /// describes (≈7,000 relays).
    pub fn with_relays(n: usize, seed: u64) -> TorNetwork {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let relays = (0..n)
            .map(|i| {
                let flags = RelayFlags {
                    guard: rng.gen_bool(0.5),
                    exit: rng.gen_bool(0.33),
                    hsdir: rng.gen_bool(0.25),
                };
                Relay::new(
                    RelayId::new(rng.gen()),
                    format!("relay{i}"),
                    rng.gen_range(100..20_000),
                    flags,
                )
            })
            .collect();
        TorNetwork {
            relays: Arc::new(relays),
            descriptors: HashMap::new(),
            services: HashMap::new(),
            fault_plan: None,
            obs: crowdtz_obs::global().map(|g| FaultObs::new(&g)),
        }
    }

    /// Attaches an observer whose `tor.fault.*` counters record every
    /// injected fault. Channels connected after this call carry the
    /// handles; the globally installed observer (if any) is picked up
    /// automatically at construction.
    pub fn set_observer(&mut self, observer: Arc<crowdtz_obs::Observer>) {
        self.obs = Some(FaultObs::new(&observer));
    }

    /// The consensus relay list.
    pub fn relays(&self) -> &[Relay] {
        &self.relays
    }

    /// Attaches a fault plan. Channels connected **after** this call share
    /// the plan and consult it on every request; channels connected before
    /// keep whatever plan (or none) was active at connect time.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(Arc::new(Mutex::new(plan)));
    }

    /// Detaches the fault plan for future connections.
    pub fn clear_fault_plan(&mut self) {
        self.fault_plan = None;
    }

    /// Queues a specific fault on the attached plan (next request fires it).
    ///
    /// # Panics
    ///
    /// Panics if no plan is attached.
    pub fn force_fault(&self, fault: Fault) {
        self.fault_plan
            .as_ref()
            .map(|plan| relock(plan).force(fault))
            .expect("force_fault called with no fault plan attached");
    }

    /// Total faults injected by the attached plan, if any.
    pub fn faults_injected(&self) -> u64 {
        self.fault_plan
            .as_ref()
            .map_or(0, |plan| relock(plan).injected())
    }

    /// Number of published hidden services.
    pub fn service_count(&self) -> usize {
        self.services.len()
    }

    /// Performs the hidden-service setup of §II.B: the service selects
    /// introduction points, opens a circuit to them, and uploads its
    /// descriptor to the responsible HS directories. Returns the onion
    /// address clients should use.
    ///
    /// # Errors
    ///
    /// Returns [`TorError::NotEnoughRelays`] when no circuit can be built.
    pub fn publish(&mut self, service: HiddenService) -> Result<OnionAddress, TorError> {
        let mut rng = StdRng::seed_from_u64(service.seed);
        // The service's own circuit towards its introduction points.
        let service_circuit = Circuit::select(&mut rng, &self.relays, &[])?;
        // Introduction points: up to three relays not already on the
        // service circuit.
        let intro: Vec<RelayId> = self
            .relays
            .iter()
            .filter(|r| !service_circuit.contains(r.id()))
            .take(3)
            .map(Relay::id)
            .collect();
        if intro.is_empty() {
            return Err(TorError::NotEnoughRelays {
                available: self.relays.len(),
                required: 4,
            });
        }
        let descriptor = ServiceDescriptor {
            address: service.address,
            introduction_points: intro,
        };
        self.descriptors.insert(service.address, descriptor);
        self.services
            .insert(service.address, (service.handler, service_circuit));
        Ok(service.address)
    }

    /// Removes a service (site taken down, as happened to Silk Road).
    pub fn take_down(&mut self, address: &OnionAddress) {
        self.services.remove(address);
        self.descriptors.remove(address);
    }

    /// Fetches a service descriptor from the HS directories, as the client
    /// does before connecting.
    ///
    /// # Errors
    ///
    /// Returns [`TorError::UnknownService`] for unpublished addresses.
    pub fn fetch_descriptor(&self, address: &OnionAddress) -> Result<&ServiceDescriptor, TorError> {
        self.descriptors
            .get(address)
            .ok_or_else(|| TorError::UnknownService {
                address: address.to_string(),
            })
    }

    /// Performs the client side of the rendezvous handshake of §II.B and
    /// returns an anonymous channel to the service:
    ///
    /// 1. fetch the descriptor from an HS directory;
    /// 2. select a rendezvous point and build a circuit to it;
    /// 3. tell an introduction point the rendezvous address;
    /// 4. the service builds its own circuit to the rendezvous point.
    ///
    /// # Errors
    ///
    /// * [`TorError::UnknownService`] — no descriptor published.
    /// * [`TorError::ServiceUnavailable`] — descriptor exists but the
    ///   service is gone.
    /// * [`TorError::NotEnoughRelays`] — circuit construction failed.
    pub fn connect(
        &self,
        address: &OnionAddress,
        client_seed: u64,
    ) -> Result<AnonymousChannel, TorError> {
        let descriptor = self.fetch_descriptor(address)?;
        let (handler, service_circuit) =
            self.services
                .get(address)
                .ok_or_else(|| TorError::ServiceUnavailable {
                    address: address.to_string(),
                })?;
        let mut rng = StdRng::seed_from_u64(client_seed ^ 0xC11E57);
        // Client circuit to the rendezvous point.
        let client_circuit = Circuit::select(&mut rng, &self.relays, &[])?;
        // The rendezvous point is the client circuit's exit.
        let rendezvous = client_circuit.exit();
        // The introduction point used to pass the rendezvous address along.
        let introduction = descriptor.introduction_points()[0];
        Ok(AnonymousChannel {
            address: *address,
            client_circuit,
            service_circuit: *service_circuit,
            rendezvous,
            introduction,
            handler: Arc::clone(handler),
            requests_served: 0,
            relays: Arc::clone(&self.relays),
            faults: self.fault_plan.clone(),
            obs: self.obs.clone(),
            client_seed,
            broken: false,
            rebuilds: 0,
        })
    }
}

impl fmt::Debug for TorNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TorNetwork")
            .field("relays", &self.relays.len())
            .field("services", &self.services.len())
            .finish()
    }
}

/// An established anonymous channel between a client and a hidden service.
///
/// The type deliberately exposes only circuit/relay metadata: there is no
/// client address and no service address to leak — mirroring the
/// information flow the real protocol guarantees.
pub struct AnonymousChannel {
    address: OnionAddress,
    client_circuit: Circuit,
    service_circuit: Circuit,
    rendezvous: RelayId,
    introduction: RelayId,
    handler: Handler,
    requests_served: u64,
    /// Consensus snapshot, so the channel can rebuild its own circuit
    /// without holding a reference back into the network.
    relays: Arc<Vec<Relay>>,
    faults: Option<SharedFaultPlan>,
    obs: Option<FaultObs>,
    client_seed: u64,
    broken: bool,
    rebuilds: u64,
}

impl AnonymousChannel {
    /// The onion address this channel reaches.
    pub fn address(&self) -> OnionAddress {
        self.address
    }

    /// The client-side circuit (client ↔ rendezvous point).
    pub fn client_circuit(&self) -> Circuit {
        self.client_circuit
    }

    /// The service-side circuit (service ↔ rendezvous point).
    pub fn service_circuit(&self) -> Circuit {
        self.service_circuit
    }

    /// The rendezvous relay both circuits meet at.
    pub fn rendezvous(&self) -> RelayId {
        self.rendezvous
    }

    /// The introduction point used during setup.
    pub fn introduction(&self) -> RelayId {
        self.introduction
    }

    /// Number of requests sent over this channel so far.
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// Whether the channel's circuit is currently down (collapse or relay
    /// churn); requests fail until [`rebuild`](Self::rebuild) succeeds.
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// How many times this channel's client circuit has been rebuilt.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Sends a request through the circuit pair and returns the service's
    /// response.
    ///
    /// # Errors
    ///
    /// With no fault plan attached this is infallible. Under a plan, a
    /// request can fail with [`TorError::CircuitCollapsed`],
    /// [`TorError::RelayChurned`], [`TorError::RequestTimeout`], or
    /// [`TorError::ServiceUnavailable`]; it can also *succeed* with
    /// truncated or corrupted bytes, which only the application layer can
    /// detect. A broken channel keeps failing with
    /// [`TorError::CircuitCollapsed`] until [`rebuild`](Self::rebuild).
    pub fn request(&mut self, payload: &[u8]) -> Result<Vec<u8>, TorError> {
        if self.broken {
            return Err(TorError::CircuitCollapsed {
                address: self.address.to_string(),
            });
        }
        self.requests_served += 1;
        let fault = self
            .faults
            .as_ref()
            .and_then(|plan| relock(plan).next_fault());
        if let (Some(obs), Some(f)) = (&self.obs, fault) {
            obs.record(f);
        }
        match fault {
            None => Ok((self.handler)(payload)),
            Some(Fault::CircuitCollapse) => {
                self.broken = true;
                Err(TorError::CircuitCollapsed {
                    address: self.address.to_string(),
                })
            }
            Some(Fault::RelayChurn) => {
                self.broken = true;
                Err(TorError::RelayChurned {
                    relay: self.client_circuit.middle(),
                })
            }
            Some(Fault::Timeout) => {
                let waited_ms = self
                    .faults
                    .as_ref()
                    .map_or(0, |plan| relock(plan).timeout_ms());
                Err(TorError::RequestTimeout { waited_ms })
            }
            Some(Fault::ServiceHiccup) => Err(TorError::ServiceUnavailable {
                address: self.address.to_string(),
            }),
            Some(Fault::TruncateResponse) => {
                let mut response = (self.handler)(payload);
                if let Some(plan) = self.faults.as_ref() {
                    relock(plan).truncate(&mut response);
                }
                Ok(response)
            }
            Some(Fault::CorruptResponse) => {
                let mut response = (self.handler)(payload);
                if let Some(plan) = self.faults.as_ref() {
                    relock(plan).corrupt(&mut response);
                }
                Ok(response)
            }
        }
    }

    /// Replaces the client circuit with a freshly selected one, clearing
    /// the broken state after a collapse or relay churn. The new circuit
    /// is deterministic in the client seed and the rebuild count, and the
    /// rendezvous moves to the new circuit's exit.
    ///
    /// # Errors
    ///
    /// Returns [`TorError::NotEnoughRelays`] when the consensus snapshot
    /// cannot supply a fresh three-hop circuit.
    pub fn rebuild(&mut self) -> Result<(), TorError> {
        let attempt = self.rebuilds + 1;
        let mut rng =
            StdRng::seed_from_u64(self.client_seed ^ 0xC11E57 ^ attempt.wrapping_mul(0x9E3779B1));
        let client_circuit = Circuit::select(&mut rng, &self.relays, &[])?;
        self.client_circuit = client_circuit;
        self.rendezvous = client_circuit.exit();
        self.rebuilds = attempt;
        self.broken = false;
        Ok(())
    }
}

impl fmt::Debug for AnonymousChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnonymousChannel")
            .field("address", &self.address)
            .field("rendezvous", &self.rendezvous)
            .field("requests_served", &self.requests_served)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_service(name: &str) -> HiddenService {
        HiddenService::create(name, 1, |req: &[u8]| {
            let mut out = b"echo:".to_vec();
            out.extend_from_slice(req);
            out
        })
    }

    #[test]
    fn publish_and_connect_round_trip() {
        let mut net = TorNetwork::with_relays(30, 7);
        let addr = net.publish(echo_service("forum")).unwrap();
        let mut ch = net.connect(&addr, 99).unwrap();
        assert_eq!(ch.request(b"hi").unwrap(), b"echo:hi");
        assert_eq!(ch.requests_served(), 1);
        assert_eq!(ch.address(), addr);
    }

    #[test]
    fn unknown_service_errors() {
        let net = TorNetwork::with_relays(30, 7);
        let bogus = OnionAddress::derive(b"nothing-here");
        assert!(matches!(
            net.connect(&bogus, 1),
            Err(TorError::UnknownService { .. })
        ));
        assert!(net.fetch_descriptor(&bogus).is_err());
    }

    #[test]
    fn take_down_removes_service() {
        let mut net = TorNetwork::with_relays(30, 7);
        let addr = net.publish(echo_service("silk-road")).unwrap();
        assert_eq!(net.service_count(), 1);
        net.take_down(&addr);
        assert_eq!(net.service_count(), 0);
        assert!(net.connect(&addr, 1).is_err());
    }

    #[test]
    fn descriptor_has_intro_points_and_no_location() {
        let mut net = TorNetwork::with_relays(30, 7);
        let addr = net.publish(echo_service("forum")).unwrap();
        let desc = net.fetch_descriptor(&addr).unwrap();
        assert!(!desc.introduction_points().is_empty());
        assert!(desc.introduction_points().len() <= 3);
        assert_eq!(desc.address(), addr);
        // The descriptor serializes to address + relay ids only.
        let json = serde_json::to_string(desc).unwrap();
        assert!(!json.contains("ip"), "unexpected field in {json}");
    }

    #[test]
    fn circuits_meet_at_rendezvous_but_do_not_share_identity() {
        let mut net = TorNetwork::with_relays(50, 7);
        let addr = net.publish(echo_service("forum")).unwrap();
        let ch = net.connect(&addr, 5).unwrap();
        // The rendezvous is the client circuit's exit.
        assert_eq!(ch.rendezvous(), ch.client_circuit().exit());
        // Client and service use different entry guards (their own).
        assert_ne!(ch.client_circuit().entry(), ch.service_circuit().entry());
    }

    #[test]
    fn distinct_clients_get_distinct_circuits() {
        let mut net = TorNetwork::with_relays(50, 7);
        let addr = net.publish(echo_service("forum")).unwrap();
        let a = net.connect(&addr, 1).unwrap();
        let b = net.connect(&addr, 2).unwrap();
        assert_ne!(a.client_circuit(), b.client_circuit());
    }

    #[test]
    fn too_small_network_fails() {
        let mut net = TorNetwork::with_relays(2, 7);
        assert!(matches!(
            net.publish(echo_service("forum")),
            Err(TorError::NotEnoughRelays { .. })
        ));
    }

    #[test]
    fn addresses_are_stable_for_same_name() {
        let s1 = echo_service("forum");
        let s2 = echo_service("forum");
        assert_eq!(s1.address(), s2.address());
    }

    #[test]
    fn multiple_services_coexist() {
        let mut net = TorNetwork::with_relays(40, 3);
        let a = net.publish(echo_service("alpha")).unwrap();
        let b = net.publish(echo_service("beta")).unwrap();
        assert_ne!(a, b);
        assert_eq!(net.service_count(), 2);
        let mut cha = net.connect(&a, 1).unwrap();
        let mut chb = net.connect(&b, 1).unwrap();
        assert_eq!(cha.request(b"x").unwrap(), b"echo:x");
        assert_eq!(chb.request(b"y").unwrap(), b"echo:y");
    }

    #[test]
    fn quiet_fault_plan_changes_nothing() {
        let mut net = TorNetwork::with_relays(30, 7);
        net.set_fault_plan(FaultPlan::quiet(1));
        let addr = net.publish(echo_service("forum")).unwrap();
        let mut ch = net.connect(&addr, 99).unwrap();
        for _ in 0..50 {
            assert_eq!(ch.request(b"hi").unwrap(), b"echo:hi");
        }
        assert_eq!(net.faults_injected(), 0);
        assert!(!ch.is_broken());
    }

    #[test]
    fn circuit_collapse_breaks_channel_until_rebuild() {
        let mut net = TorNetwork::with_relays(30, 7);
        net.set_fault_plan(FaultPlan::quiet(1));
        let addr = net.publish(echo_service("forum")).unwrap();
        let mut ch = net.connect(&addr, 99).unwrap();
        net.force_fault(Fault::CircuitCollapse);
        assert!(matches!(
            ch.request(b"hi"),
            Err(TorError::CircuitCollapsed { .. })
        ));
        assert!(ch.is_broken());
        // Still broken: the forced fault is spent, but no rebuild happened.
        assert!(matches!(
            ch.request(b"hi"),
            Err(TorError::CircuitCollapsed { .. })
        ));
        let before = ch.client_circuit();
        ch.rebuild().unwrap();
        assert!(!ch.is_broken());
        assert_ne!(ch.client_circuit(), before);
        assert_eq!(ch.rendezvous(), ch.client_circuit().exit());
        assert_eq!(ch.rebuilds(), 1);
        assert_eq!(ch.request(b"hi").unwrap(), b"echo:hi");
    }

    #[test]
    fn relay_churn_names_a_circuit_relay() {
        let mut net = TorNetwork::with_relays(30, 7);
        net.set_fault_plan(FaultPlan::quiet(1));
        let addr = net.publish(echo_service("forum")).unwrap();
        let mut ch = net.connect(&addr, 99).unwrap();
        net.force_fault(Fault::RelayChurn);
        let churned = match ch.request(b"hi") {
            Err(TorError::RelayChurned { relay }) => relay,
            other => panic!("expected RelayChurned, got {other:?}"),
        };
        assert!(ch.client_circuit().contains(churned));
        assert!(ch.is_broken());
        ch.rebuild().unwrap();
        assert_eq!(ch.request(b"hi").unwrap(), b"echo:hi");
    }

    #[test]
    fn timeout_and_hiccup_leave_circuit_standing() {
        let mut net = TorNetwork::with_relays(30, 7);
        net.set_fault_plan(FaultPlan::quiet(1));
        let addr = net.publish(echo_service("forum")).unwrap();
        let mut ch = net.connect(&addr, 99).unwrap();
        net.force_fault(Fault::Timeout);
        match ch.request(b"hi") {
            Err(TorError::RequestTimeout { waited_ms }) => assert!(waited_ms >= 1_000),
            other => panic!("expected RequestTimeout, got {other:?}"),
        }
        assert!(!ch.is_broken());
        net.force_fault(Fault::ServiceHiccup);
        assert!(matches!(
            ch.request(b"hi"),
            Err(TorError::ServiceUnavailable { .. })
        ));
        // No rebuild needed after transient faults.
        assert_eq!(ch.request(b"hi").unwrap(), b"echo:hi");
        assert_eq!(ch.rebuilds(), 0);
    }

    #[test]
    fn truncation_and_corruption_mangle_but_succeed() {
        let mut net = TorNetwork::with_relays(30, 7);
        net.set_fault_plan(FaultPlan::quiet(1));
        let addr = net.publish(echo_service("forum")).unwrap();
        let mut ch = net.connect(&addr, 99).unwrap();
        let clean = ch.request(b"payload").unwrap();
        net.force_fault(Fault::TruncateResponse);
        let truncated = ch.request(b"payload").unwrap();
        assert!(truncated.len() < clean.len());
        net.force_fault(Fault::CorruptResponse);
        let corrupted = ch.request(b"payload").unwrap();
        assert_eq!(corrupted.len(), clean.len());
        assert_ne!(corrupted, clean);
        assert_eq!(net.faults_injected(), 2);
    }

    #[test]
    fn rebuilds_are_deterministic_per_seed() {
        let mut net = TorNetwork::with_relays(50, 7);
        net.set_fault_plan(FaultPlan::quiet(1));
        let addr = net.publish(echo_service("forum")).unwrap();
        let mut a = net.connect(&addr, 5).unwrap();
        let mut b = net.connect(&addr, 5).unwrap();
        a.rebuild().unwrap();
        b.rebuild().unwrap();
        assert_eq!(a.client_circuit(), b.client_circuit());
        a.rebuild().unwrap();
        assert_ne!(a.client_circuit(), b.client_circuit());
    }

    #[test]
    fn error_classification_matches_recovery_contract() {
        let timeout = TorError::RequestTimeout { waited_ms: 5 };
        assert!(timeout.is_transient() && !timeout.needs_rebuild());
        let collapse = TorError::CircuitCollapsed {
            address: "x".into(),
        };
        assert!(collapse.needs_rebuild() && !collapse.is_transient());
        let churn = TorError::RelayChurned {
            relay: RelayId::new(1),
        };
        assert!(churn.needs_rebuild());
        let gone = TorError::UnknownService {
            address: "x".into(),
        };
        assert!(!gone.is_transient() && !gone.needs_rebuild());
    }

    #[test]
    fn debug_formats_do_not_leak_handler() {
        let mut net = TorNetwork::with_relays(30, 7);
        let addr = net.publish(echo_service("forum")).unwrap();
        let ch = net.connect(&addr, 1).unwrap();
        let s = format!("{ch:?}");
        assert!(s.contains("AnonymousChannel"));
        let s = format!("{net:?}");
        assert!(s.contains("TorNetwork"));
    }
}
