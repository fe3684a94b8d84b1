//! The forum host: answers protocol requests, applying the server clock
//! offset and timestamp policy.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crowdtz_tor::HiddenService;

use crate::model::{PostId, ThreadId};
use crate::protocol::{
    decode_request, encode_response, Request, Response, ShownPost, TimestampPolicy,
};
use crate::simulate::SimulatedForum;

/// Serves a [`SimulatedForum`] over the scraping protocol.
///
/// The host is the boundary between ground truth and the visitor's view:
/// it renders timestamps in **server time** (true UTC + the forum's clock
/// offset), enforces the timestamp policy, and paginates listings the way
/// real forum software does.
pub struct ForumHost {
    forum: SimulatedForum,
    page_size: usize,
    /// Posts per thread (indices into `forum.posts()`), precomputed.
    thread_index: HashMap<ThreadId, Vec<usize>>,
    /// Calibration posts submitted at run time, per thread.
    submitted: Mutex<Vec<ShownPost>>,
}

impl ForumHost {
    /// Wraps a forum with the default page size of 50 posts.
    pub fn new(forum: SimulatedForum) -> ForumHost {
        let mut thread_index: HashMap<ThreadId, Vec<usize>> = HashMap::new();
        for (i, p) in forum.posts().iter().enumerate() {
            thread_index.entry(p.thread()).or_default().push(i);
        }
        ForumHost {
            forum,
            page_size: 50,
            thread_index,
            submitted: Mutex::new(Vec::new()),
        }
    }

    /// Sets the pagination size.
    #[must_use]
    pub fn page_size(mut self, page_size: usize) -> ForumHost {
        self.page_size = page_size.max(1);
        self
    }

    /// The wrapped forum (ground truth — test/validation use only).
    pub fn forum(&self) -> &SimulatedForum {
        &self.forum
    }

    /// Handles one encoded request, returning the encoded response.
    pub fn handle(&self, bytes: &[u8]) -> Vec<u8> {
        let response = match decode_request(bytes) {
            Some(req) => self.dispatch(req),
            None => Response::Error {
                reason: "malformed request".into(),
            },
        };
        encode_response(&response)
    }

    /// Publishes this host as a hidden service handler.
    pub fn into_hidden_service(self, seed: u64) -> HiddenService {
        let key = self.forum.spec().onion_key().to_owned();
        let host = Arc::new(self);
        HiddenService::create(&key, seed, move |req: &[u8]| host.handle(req))
    }

    fn dispatch(&self, req: Request) -> Response {
        match req {
            Request::ListThreads { page } => self.list_threads(page),
            Request::GetThread { thread, page } => self.get_thread(thread, page),
            Request::PostMessage {
                thread,
                author,
                client_now,
            } => self.post_message(thread, author, client_now),
            Request::NewPosts {
                after,
                observer_now,
            } => self.new_posts(after, observer_now),
        }
    }

    fn list_threads(&self, page: usize) -> Response {
        let spec = self.forum.spec();
        let visible: Vec<_> = self
            .forum
            .threads()
            .iter()
            .filter(|t| spec.section_list()[t.section].is_scrapable())
            .cloned()
            .collect();
        let pages = visible.len().div_ceil(self.page_size).max(1);
        if page >= pages {
            return Response::Error {
                reason: format!("page {page} out of range ({pages} pages)"),
            };
        }
        let start = page * self.page_size;
        let end = (start + self.page_size).min(visible.len());
        Response::Threads {
            threads: visible[start..end].to_vec(),
            pages,
        }
    }

    fn shown_post(&self, index: usize) -> ShownPost {
        let p = &self.forum.posts()[index];
        ShownPost {
            id: p.id(),
            author: p.author().to_owned(),
            shown_time: self.forum.shown_time(index),
        }
    }

    fn get_thread(&self, thread: ThreadId, page: usize) -> Response {
        let Some(indices) = self.thread_index.get(&thread) else {
            return Response::Error {
                reason: format!("unknown thread {thread}"),
            };
        };
        let pages = indices.len().div_ceil(self.page_size).max(1);
        if page >= pages {
            return Response::Error {
                reason: format!("page {page} out of range ({pages} pages)"),
            };
        }
        let start = page * self.page_size;
        let end = (start + self.page_size).min(indices.len());
        Response::ThreadPage {
            posts: indices[start..end]
                .iter()
                .map(|&i| self.shown_post(i))
                .collect(),
            pages,
        }
    }

    fn post_message(
        &self,
        thread: ThreadId,
        author: String,
        client_now: crowdtz_time::Timestamp,
    ) -> Response {
        if !self.thread_index.contains_key(&thread)
            && thread.0 as usize >= self.forum.threads().len()
        {
            return Response::Error {
                reason: format!("unknown thread {thread}"),
            };
        }
        let spec = self.forum.spec();
        let shown_time = match spec.timestamp_policy() {
            TimestampPolicy::Hidden => None,
            TimestampPolicy::Visible => Some(client_now + spec.server_offset()),
            TimestampPolicy::DelayedUniform { max_delay_secs } => {
                // Deterministic pseudo-delay derived from the submission
                // count, so tests are reproducible.
                let count = relock(&self.submitted).len() as i64;
                let delay = if max_delay_secs == 0 {
                    0
                } else {
                    (count * 977) % i64::from(max_delay_secs)
                };
                Some(client_now + spec.server_offset() + delay)
            }
        };
        let post = ShownPost {
            id: PostId(self.forum.post_count() as u64 + relock(&self.submitted).len() as u64),
            author,
            shown_time,
        };
        relock(&self.submitted).push(post.clone());
        Response::Posted { post }
    }

    fn new_posts(&self, after: PostId, observer_now: crowdtz_time::Timestamp) -> Response {
        const MAX_BATCH: usize = 500;
        let start = self.forum.posts().partition_point(|p| p.id() <= after);
        let posts: Vec<ShownPost> = self.forum.posts()[start..]
            .iter()
            .take_while(|p| p.true_time() <= observer_now)
            .take(MAX_BATCH)
            .map(|p| self.shown_post(p.id().0 as usize))
            .collect();
        Response::Fresh { posts }
    }
}

/// Locks a mutex with the workspace poisoning policy: every value behind
/// these locks is updated whole by each holder, so a panicked former
/// holder is survivable.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl fmt::Debug for ForumHost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ForumHost")
            .field("forum", &self.forum.spec().name())
            .field("page_size", &self.page_size)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::encode_request;
    use crate::spec::{CrowdComponent, ForumSpec};
    use crowdtz_time::Timestamp;

    fn small_host() -> ForumHost {
        let spec = ForumSpec::new("T", vec![CrowdComponent::new("italy", 1.0)], 6).seed(5);
        ForumHost::new(SimulatedForum::generate(&spec)).page_size(10)
    }

    fn ask(host: &ForumHost, req: &Request) -> Response {
        let bytes = host.handle(&encode_request(req));
        crate::protocol::decode_response(&bytes).unwrap()
    }

    #[test]
    fn lists_threads_with_pagination() {
        let host = small_host();
        let Response::Threads { threads, pages } = ask(&host, &Request::ListThreads { page: 0 })
        else {
            panic!("wrong response")
        };
        assert!(!threads.is_empty());
        assert!(pages >= 1);
    }

    #[test]
    fn thread_pages_cover_all_posts() {
        let host = small_host();
        let Response::Threads { threads, .. } = ask(&host, &Request::ListThreads { page: 0 })
        else {
            panic!()
        };
        let mut seen = 0usize;
        for t in &threads {
            let mut page = 0;
            loop {
                let Response::ThreadPage { posts, pages } =
                    ask(&host, &Request::GetThread { thread: t.id, page })
                else {
                    panic!()
                };
                seen += posts.len();
                page += 1;
                if page >= pages {
                    break;
                }
            }
        }
        assert_eq!(seen, host.forum().post_count());
    }

    #[test]
    fn shows_server_time() {
        let spec = ForumSpec::new("T", vec![CrowdComponent::new("italy", 1.0)], 4)
            .seed(5)
            .server_offset_secs(3_600);
        let host = ForumHost::new(SimulatedForum::generate(&spec));
        let Response::ThreadPage { posts, .. } = ask(
            &host,
            &Request::GetThread {
                thread: host.forum().posts()[0].thread(),
                page: 0,
            },
        ) else {
            panic!()
        };
        let first = &posts[0];
        let truth = host
            .forum()
            .posts()
            .iter()
            .find(|p| p.id() == first.id)
            .unwrap();
        assert_eq!(first.shown_time.unwrap(), truth.true_time() + 3_600);
    }

    #[test]
    fn post_message_echoes_server_stamp() {
        let spec = ForumSpec::new("T", vec![CrowdComponent::new("italy", 1.0)], 4)
            .seed(5)
            .server_offset_secs(-7_200);
        let host = ForumHost::new(SimulatedForum::generate(&spec));
        let now = Timestamp::from_secs(1_480_000_000);
        let Response::Posted { post } = ask(
            &host,
            &Request::PostMessage {
                thread: ThreadId(0),
                author: "observer".into(),
                client_now: now,
            },
        ) else {
            panic!()
        };
        assert_eq!(post.shown_time.unwrap(), now - 7_200);
        assert_eq!(post.author, "observer");
    }

    #[test]
    fn hidden_policy_hides_everywhere() {
        let spec = ForumSpec::new("T", vec![CrowdComponent::new("italy", 1.0)], 4)
            .seed(5)
            .policy(TimestampPolicy::Hidden);
        let host = ForumHost::new(SimulatedForum::generate(&spec));
        let thread = host.forum().posts()[0].thread();
        let Response::ThreadPage { posts, .. } =
            ask(&host, &Request::GetThread { thread, page: 0 })
        else {
            panic!()
        };
        assert!(posts.iter().all(|p| p.shown_time.is_none()));
        let Response::Posted { post } = ask(
            &host,
            &Request::PostMessage {
                thread: ThreadId(0),
                author: "o".into(),
                client_now: Timestamp::from_secs(0),
            },
        ) else {
            panic!()
        };
        assert!(post.shown_time.is_none());
    }

    #[test]
    fn new_posts_respects_observer_clock() {
        let host = small_host();
        let posts = host.forum().posts();
        let mid_time = posts[posts.len() / 2].true_time();
        let Response::Fresh { posts: fresh } = ask(
            &host,
            &Request::NewPosts {
                after: PostId(0),
                observer_now: mid_time,
            },
        ) else {
            panic!()
        };
        // Only posts that already happened (id > 0, time ≤ mid_time).
        assert!(!fresh.is_empty());
        for p in &fresh {
            let truth = posts.iter().find(|q| q.id() == p.id).unwrap();
            assert!(truth.true_time() <= mid_time);
            assert!(p.id > PostId(0));
        }
    }

    #[test]
    fn malformed_and_out_of_range_requests_error() {
        let host = small_host();
        let resp = crate::protocol::decode_response(&host.handle(b"garbage")).unwrap();
        assert!(matches!(resp, Response::Error { .. }));
        let resp = ask(&host, &Request::ListThreads { page: 999 });
        assert!(matches!(resp, Response::Error { .. }));
        let resp = ask(
            &host,
            &Request::GetThread {
                thread: ThreadId(9_999),
                page: 0,
            },
        );
        assert!(matches!(resp, Response::Error { .. }));
    }

    #[test]
    fn hidden_sections_not_listed() {
        let forum = SimulatedForum::generate(&ForumSpec::pedo_support().scaled(0.05));
        let spec_sections = forum.spec().section_list().to_vec();
        let host = ForumHost::new(forum).page_size(100);
        let Response::Threads { threads, .. } = ask(&host, &Request::ListThreads { page: 0 })
        else {
            panic!()
        };
        for t in &threads {
            assert!(spec_sections[t.section].is_scrapable());
        }
    }

    #[test]
    fn serves_through_hidden_service() {
        let spec = ForumSpec::new("T", vec![CrowdComponent::new("italy", 1.0)], 4).seed(5);
        let host = ForumHost::new(SimulatedForum::generate(&spec));
        let mut net = crowdtz_tor::TorNetwork::with_relays(30, 9);
        let addr = net.publish(host.into_hidden_service(11)).unwrap();
        let mut ch = net.connect(&addr, 3).unwrap();
        let bytes = ch
            .request(&encode_request(&Request::ListThreads { page: 0 }))
            .unwrap();
        let resp = crate::protocol::decode_response(&bytes).unwrap();
        assert!(matches!(resp, Response::Threads { .. }));
    }
}
