//! Multi-tenant engine registry: one [`ConcurrentStreamingPipeline`]
//! per forum.
//!
//! The serving layer (`crowdtz-serve`) fronts many forums side by side —
//! the deployment shape "Characterizing Activity on the Deep and Dark
//! Web" implies, where dozens of boards are analyzed over the same
//! horizon. A [`TenantRegistry`] owns that mapping: tenant creation is
//! serialized (no two requests can race the same name into two engines),
//! lookups are cheap reads of an `RwLock`-guarded map handing out `Arc`s,
//! and [`checkpoint_all`](TenantRegistry::checkpoint_all) is the
//! graceful-shutdown hook — every durable tenant folds its write-ahead
//! log into a fresh snapshot generation so the next process start is a
//! warm, replay-free open.
//!
//! The registry is transport-agnostic: it knows nothing about HTTP. All
//! request framing, routing, and error mapping live in `crowdtz-serve`;
//! everything here is reusable from any embedding (a CLI, a test
//! harness, a different wire protocol).

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, PoisonError, RwLock};

use crate::concurrent::ConcurrentStreamingPipeline;
use crate::error::CoreError;
use crate::pipeline::GeolocationPipeline;
use crate::placement::ZoneGrid;
use crate::window::{WindowConfig, WindowedPipeline};

/// Longest accepted tenant name. Names become directory components in
/// durable mode, so the bound keeps paths portable.
pub const MAX_TENANT_NAME: usize = 64;

/// Whether `name` is a valid tenant name: 1–[`MAX_TENANT_NAME`] chars
/// from `[A-Za-z0-9._-]`, not starting with a dot (durable tenants use
/// the name as a directory component, so `..` and hidden-file shapes are
/// rejected outright — there is no path traversal to sanitize later).
pub fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_TENANT_NAME
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// How one tenant's engine is configured. The analysis knobs mirror the
/// [`GeolocationPipeline`] builder; `durable_dir` switches the engine to
/// the write-ahead [`open_durable`](ConcurrentStreamingPipeline::open_durable)
/// path.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Zone grid resolution (24/48/96 bins).
    pub grid: ZoneGrid,
    /// Accumulator shard count (0 = the engine default).
    pub shards: usize,
    /// Worker threads for refresh/snapshot (0 = the engine default).
    pub threads: usize,
    /// Minimum posts before a user enters the analysis.
    pub min_posts: usize,
    /// When set, the engine journals every batch under this directory
    /// and recovers warm from it on the next create.
    pub durable_dir: Option<PathBuf>,
    /// When set, the tenant fronts its engine with a [`WindowedPipeline`]:
    /// posts expire out of the analysis after the configured span and
    /// every publish appends a drift-trajectory point.
    ///
    /// Do not combine it with `durable_dir`: the window's queue of posts
    /// awaiting expiry lives only in memory, so after a restart the posts
    /// recovered from the log would never expire (and a retraction of
    /// them would find nothing to retract). The HTTP service rejects
    /// that combination.
    pub window: Option<WindowConfig>,
}

impl Default for TenantConfig {
    fn default() -> TenantConfig {
        TenantConfig {
            grid: ZoneGrid::default(),
            shards: 0,
            threads: 0,
            min_posts: GeolocationPipeline::default().min_posts_threshold(),
            durable_dir: None,
            window: None,
        }
    }
}

impl TenantConfig {
    fn build_pipeline(&self, observer: Option<Arc<crowdtz_obs::Observer>>) -> GeolocationPipeline {
        let mut pipeline = GeolocationPipeline::default()
            .grid(self.grid)
            .min_posts(self.min_posts);
        if self.shards > 0 {
            pipeline = pipeline.shards(self.shards);
        }
        if self.threads > 0 {
            pipeline = pipeline.threads(self.threads);
        }
        if let Some(observer) = observer {
            pipeline = pipeline.observer(observer);
        }
        pipeline
    }
}

/// One registered forum: its name, configuration, and concurrent engine.
/// Handed out as an `Arc` — holders keep the engine alive even if the
/// tenant is later removed from the registry.
#[derive(Debug)]
pub struct Tenant {
    name: String,
    config: TenantConfig,
    engine: ConcurrentStreamingPipeline,
    window: Option<WindowedPipeline>,
}

impl Tenant {
    /// The tenant's (validated) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &TenantConfig {
        &self.config
    }

    /// The tenant's concurrent engine. Cheap to clone; writers come from
    /// [`ConcurrentStreamingPipeline::writer`].
    pub fn engine(&self) -> &ConcurrentStreamingPipeline {
        &self.engine
    }

    /// Whether this tenant journals to a durable store.
    pub fn is_durable(&self) -> bool {
        self.config.durable_dir.is_some()
    }

    /// The tenant's sliding-window front, when the config asked for one.
    /// Windowed tenants should publish through it (so expiry and drift
    /// tracking run) rather than through the raw engine.
    pub fn window(&self) -> Option<&WindowedPipeline> {
        self.window.as_ref()
    }
}

/// Why a tenant could not be created.
#[derive(Debug)]
pub enum TenantError {
    /// The name failed [`valid_tenant_name`].
    InvalidName {
        /// The rejected name.
        name: String,
    },
    /// A tenant with this name already exists.
    AlreadyExists {
        /// The contested name.
        name: String,
    },
    /// The engine could not be built (durable recovery failed).
    Core(CoreError),
}

impl fmt::Display for TenantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenantError::InvalidName { name } => write!(
                f,
                "invalid tenant name {name:?}: want 1-{MAX_TENANT_NAME} chars of \
                 [A-Za-z0-9._-], not starting with '.'"
            ),
            TenantError::AlreadyExists { name } => write!(f, "tenant {name:?} already exists"),
            TenantError::Core(e) => write!(f, "tenant engine failed to open: {e}"),
        }
    }
}

impl std::error::Error for TenantError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TenantError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for TenantError {
    fn from(e: CoreError) -> TenantError {
        TenantError::Core(e)
    }
}

/// A name-keyed registry of tenant engines with serialized creation and
/// a graceful-shutdown checkpoint hook. See the module docs.
#[derive(Debug, Default)]
pub struct TenantRegistry {
    tenants: RwLock<BTreeMap<String, Arc<Tenant>>>,
}

impl TenantRegistry {
    /// An empty registry.
    pub fn new() -> TenantRegistry {
        TenantRegistry::default()
    }

    /// Creates and registers a tenant. Creation holds the registry's
    /// write lock for the whole engine build, so two concurrent creates
    /// of the same name cannot both succeed — and a durable tenant's
    /// recovery can never run twice against the same directory.
    ///
    /// # Errors
    ///
    /// * [`TenantError::InvalidName`] — the name fails [`valid_tenant_name`].
    /// * [`TenantError::AlreadyExists`] — the name is taken.
    /// * [`TenantError::Core`] — durable recovery failed.
    pub fn create(
        &self,
        name: &str,
        config: TenantConfig,
        observer: Option<Arc<crowdtz_obs::Observer>>,
    ) -> Result<Arc<Tenant>, TenantError> {
        if !valid_tenant_name(name) {
            return Err(TenantError::InvalidName {
                name: name.to_string(),
            });
        }
        let mut tenants = self.tenants.write().unwrap_or_else(PoisonError::into_inner);
        if tenants.contains_key(name) {
            return Err(TenantError::AlreadyExists {
                name: name.to_string(),
            });
        }
        let pipeline = config.build_pipeline(observer.clone());
        let engine = match &config.durable_dir {
            None => ConcurrentStreamingPipeline::new(pipeline),
            Some(dir) => ConcurrentStreamingPipeline::open_durable(pipeline, dir)?,
        };
        let window = config
            .window
            .clone()
            .map(|w| WindowedPipeline::new(engine.clone(), w, observer));
        let tenant = Arc::new(Tenant {
            name: name.to_string(),
            config,
            engine,
            window,
        });
        tenants.insert(name.to_string(), Arc::clone(&tenant));
        Ok(tenant)
    }

    /// The tenant named `name`, if registered.
    pub fn get(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// Registered tenant names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect()
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes a tenant from the registry, returning it if present.
    /// Outstanding `Arc`s (and their writers) stay valid; the engine is
    /// dropped once the last holder lets go.
    pub fn remove(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(name)
    }

    /// The graceful-shutdown hook: every **durable** tenant writes a
    /// snapshot generation now (compacting its log), so the next open is
    /// warm and replay-free. Non-durable tenants are untouched. Returns
    /// how many tenants checkpointed.
    ///
    /// # Errors
    ///
    /// [`CoreError::Store`] from the first tenant whose checkpoint
    /// fails; earlier tenants' generations are already committed.
    pub fn checkpoint_all(&self) -> Result<usize, CoreError> {
        let tenants: Vec<Arc<Tenant>> = self
            .tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .cloned()
            .collect();
        let mut written = 0;
        for tenant in tenants {
            if tenant.engine.checkpoint_now()?.is_some() {
                written += 1;
            }
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtz_time::Timestamp;

    #[test]
    fn names_are_validated() {
        for good in ["alpha", "dark-market", "b0ard_2", "a.b", "x"] {
            assert!(valid_tenant_name(good), "{good:?} should be valid");
        }
        for bad in [
            "",
            ".",
            "..",
            ".hidden",
            "a/b",
            "a b",
            "a\u{e9}",
            &"x".repeat(65),
        ] {
            assert!(!valid_tenant_name(bad), "{bad:?} should be invalid");
        }
    }

    #[test]
    fn create_get_list_and_duplicate_rejection() {
        let registry = TenantRegistry::new();
        assert!(registry.is_empty());
        registry
            .create("alpha", TenantConfig::default(), None)
            .unwrap();
        registry
            .create("beta", TenantConfig::default(), None)
            .unwrap();
        assert_eq!(registry.names(), ["alpha", "beta"]);
        assert_eq!(registry.len(), 2);
        assert!(registry.get("alpha").is_some());
        assert!(registry.get("gamma").is_none());
        assert!(matches!(
            registry.create("alpha", TenantConfig::default(), None),
            Err(TenantError::AlreadyExists { .. })
        ));
        assert!(matches!(
            registry.create("bad name", TenantConfig::default(), None),
            Err(TenantError::InvalidName { .. })
        ));
    }

    #[test]
    fn tenants_are_isolated_engines() {
        let registry = TenantRegistry::new();
        let config = TenantConfig {
            min_posts: 1,
            threads: 1,
            ..TenantConfig::default()
        };
        let a = registry.create("a", config.clone(), None).unwrap();
        let b = registry.create("b", config, None).unwrap();
        let writer = a.engine().writer();
        for day in 0..10i64 {
            writer
                .ingest_posts_ref(&[("ua", Timestamp::from_secs(day * 86_400 + 20 * 3_600))])
                .unwrap();
        }
        assert_eq!(a.engine().users_tracked(), 1);
        assert_eq!(b.engine().users_tracked(), 0, "tenants share nothing");
    }

    #[test]
    fn checkpoint_all_touches_only_durable_tenants() {
        let dir = std::env::temp_dir().join(format!("crowdtz-tenant-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = TenantRegistry::new();
        registry
            .create("plain", TenantConfig::default(), None)
            .unwrap();
        let durable = registry
            .create(
                "journaled",
                TenantConfig {
                    min_posts: 1,
                    threads: 1,
                    durable_dir: Some(dir.join("journaled")),
                    ..TenantConfig::default()
                },
                None,
            )
            .unwrap();
        assert!(durable.is_durable());
        let writer = durable.engine().writer();
        for day in 0..10i64 {
            writer
                .ingest_posts_ref(&[("u", Timestamp::from_secs(day * 86_400 + 7 * 3_600))])
                .unwrap();
        }
        assert_eq!(registry.checkpoint_all().unwrap(), 1);
        // Removal hands back the Arc and leaves others registered.
        assert!(registry.remove("plain").is_some());
        assert_eq!(registry.names(), ["journaled"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
