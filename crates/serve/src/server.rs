//! Dynamic batching: coalesce concurrent single-row queries into one
//! batched forward under a max-latency deadline.
//!
//! One worker thread owns the execution loop. Clients hold
//! [`ServerSession`] handles; each query ships the request *and the
//! session's carried recurrent state* to the worker, blocks on a reply
//! channel, and stores the carried state that comes back — so per-session
//! LSTM state survives arbitrary interleaving with other clients.
//!
//! Batch formation: the worker blocks for the first request, then drains
//! the queue until either `max_batch` requests are pending or `max_wait`
//! has elapsed since that first arrival (the deadline is anchored at the
//! *oldest* pending request, so a lone straggler is never parked longer
//! than `max_wait`). Pending requests are then grouped into executable
//! batches: same [`Infer::coalesce_key`], at most one request per session
//! per batch (a session's second query depends on the state its first one
//! returns), at most `max_batch` rows. Leftovers execute in follow-up
//! rounds before the worker returns to the queue.

use crate::session::InferEngine;
use legw_models::Infer;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Batch-formation policy.
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Hard cap on rows per executed batch.
    pub max_batch: usize,
    /// How long the oldest pending request may wait for company before its
    /// batch executes as-is.
    pub max_wait: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self { max_batch: 32, max_wait: Duration::from_millis(2) }
    }
}

/// Counters the batcher maintains; read with [`Server::stats`].
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    /// Batched forwards executed.
    pub batches: u64,
    /// Client requests answered.
    pub requests: u64,
    /// Largest executed batch.
    pub largest_batch: usize,
    /// Longest time any request spent queued before its batch executed.
    pub max_queue_wait: Duration,
}

impl ServerStats {
    /// Mean rows per executed batch — the coalescing factor. Above 1.0
    /// means the batcher is actually amortising forwards across clients.
    pub fn mean_batch(&self) -> f64 {
        self.requests as f64 / (self.batches as f64).max(1.0)
    }
}

struct Job<M: Infer> {
    req: M::Req,
    state: M::RowState,
    session: u64,
    enqueued: Instant,
    reply: mpsc::Sender<(M::Out, M::RowState)>,
}

/// A dynamic-batching inference server over a shared [`InferEngine`].
///
/// Dropping the server (and every [`ServerSession`]) stops the worker;
/// call [`Server::shutdown`] after dropping sessions to join it.
pub struct Server<M: Infer> {
    engine: Arc<InferEngine<M>>,
    tx: mpsc::Sender<Job<M>>,
    worker: Option<JoinHandle<()>>,
    stats: Arc<Mutex<ServerStats>>,
    next_session: AtomicU64,
}

impl<M> Server<M>
where
    M: Infer + Send + Sync + 'static,
    M::Req: Send,
    M::Out: Send,
    M::RowState: Send,
{
    /// Spawns the batch worker over `engine`.
    pub fn start(engine: Arc<InferEngine<M>>, cfg: BatchConfig) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        let (tx, rx) = mpsc::channel::<Job<M>>();
        let stats = Arc::new(Mutex::new(ServerStats::default()));
        let worker = {
            let engine = Arc::clone(&engine);
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || batch_loop(rx, engine, cfg, stats))
        };
        Self { engine, tx, worker: Some(worker), stats, next_session: AtomicU64::new(0) }
    }

    /// Opens a client session (fresh recurrent state).
    pub fn session(&self) -> ServerSession<M> {
        let zero = self.engine.model().zero_state();
        ServerSession {
            tx: self.tx.clone(),
            state: zero.clone(),
            initial: zero,
            id: self.next_session.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// A snapshot of the batching counters.
    pub fn stats(&self) -> ServerStats {
        self.stats.lock().unwrap().clone()
    }

    /// The shared engine (e.g. to inspect [`InferEngine::cached_plans`]).
    pub fn engine(&self) -> &Arc<InferEngine<M>> {
        &self.engine
    }

    /// Drops the server's queue handle, joins the worker, and returns the
    /// final counters. All sessions must be dropped first or this blocks
    /// until they are.
    pub fn shutdown(mut self) -> ServerStats {
        let worker = self.worker.take();
        let stats = Arc::clone(&self.stats);
        drop(self); // drops the server's queue sender
        if let Some(w) = worker {
            let _ = w.join();
        }
        let final_stats = stats.lock().unwrap().clone();
        final_stats
    }
}

impl<M: Infer> Drop for Server<M> {
    fn drop(&mut self) {
        // Detach rather than join: sessions may still hold queue handles,
        // and the worker exits on its own once the last one goes away.
        self.worker.take();
    }
}

/// A client handle: owns this session's carried state and a handle into
/// the server queue. `query` blocks until the batcher answers.
pub struct ServerSession<M: Infer> {
    tx: mpsc::Sender<Job<M>>,
    state: M::RowState,
    initial: M::RowState,
    id: u64,
}

impl<M: Infer> ServerSession<M> {
    /// Submits one request and blocks for the batched answer, carrying
    /// this session's recurrent state across the call.
    pub fn query(&mut self, req: M::Req) -> M::Out {
        let (reply_tx, reply_rx) = mpsc::channel();
        let job = Job {
            req,
            state: self.state.clone(),
            session: self.id,
            enqueued: Instant::now(),
            reply: reply_tx,
        };
        self.tx.send(job).expect("inference server is gone");
        let (out, next) = reply_rx.recv().expect("inference server dropped the reply");
        self.state = next;
        out
    }

    /// Drops the carried state (start a new stream). Sessions cannot reach
    /// the model, so the zero state is a clone kept from creation time.
    pub fn reset(&mut self) {
        self.state = self.initial.clone();
    }
}

fn batch_loop<M: Infer>(
    rx: mpsc::Receiver<Job<M>>,
    engine: Arc<InferEngine<M>>,
    cfg: BatchConfig,
    stats: Arc<Mutex<ServerStats>>,
) {
    loop {
        // Block for work, then keep the batch open until the deadline.
        let first = match rx.recv() {
            Ok(job) => job,
            Err(_) => return, // every sender dropped: shut down
        };
        let deadline = first.enqueued + cfg.max_wait;
        let mut pending = vec![first];
        while pending.len() < cfg.max_batch {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(job) => pending.push(job),
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }

        // Execute in rounds: greedily take the largest leading group that
        // shares the first pending job's coalesce key, with one request
        // per session per round.
        while !pending.is_empty() {
            let key = engine.model().coalesce_key(&pending[0].req);
            let mut round = Vec::new();
            let mut rest = Vec::new();
            let mut sessions = HashSet::new();
            for job in pending {
                if round.len() < cfg.max_batch
                    && engine.model().coalesce_key(&job.req) == key
                    && sessions.insert(job.session)
                {
                    round.push(job);
                } else {
                    rest.push(job);
                }
            }
            execute(&engine, round, &stats);
            pending = rest;
        }
    }
}

fn execute<M: Infer>(engine: &InferEngine<M>, round: Vec<Job<M>>, stats: &Arc<Mutex<ServerStats>>) {
    let started = Instant::now();
    let mut reqs = Vec::with_capacity(round.len());
    let mut states = Vec::with_capacity(round.len());
    let mut replies = Vec::with_capacity(round.len());
    let mut oldest = Duration::ZERO;
    for job in round {
        oldest = oldest.max(started.duration_since(job.enqueued));
        reqs.push(job.req);
        states.push(job.state);
        replies.push(job.reply);
    }
    let results = engine.run(&reqs, &states);
    debug_assert_eq!(results.len(), replies.len());
    for (reply, out) in replies.into_iter().zip(results) {
        // A client that gave up (dropped its session mid-query) is fine.
        let _ = reply.send(out);
    }
    let mut s = stats.lock().unwrap();
    s.batches += 1;
    s.requests += reqs.len() as u64;
    s.largest_batch = s.largest_batch.max(reqs.len());
    s.max_queue_wait = s.max_queue_wait.max(oldest);
}
