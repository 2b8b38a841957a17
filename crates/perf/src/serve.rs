//! The serving legs: freeze → restore → engine, offline batches, and the
//! closed-loop dynamic batcher, each served row checked against the live
//! model's `Infer::infer_tape`.

use crate::apps::App;
use crate::refclock::{Piece, RefClock};
use crate::report::Checks;
use crate::trace::Tracer;
use crate::workload::BF16_MAX_DRIFT;
use legw_models::Infer;
use legw_nn::ParamSet;
use legw_serve::{freeze, restore, BatchConfig, InferEngine, Server, ServerStats};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows per offline batch.
pub const OFFLINE_ROWS: usize = 64;
/// Closed-loop client threads, and therefore the batcher's `max_batch`: a
/// full batch then never waits out the 2 ms deadline.
pub const CLIENTS: usize = 2;

type Req<A> = <<A as App>::Model as Infer>::Req;
type Out<A> = <<A as App>::Model as Infer>::Out;

/// Timings of one `serve_build`.
pub struct Built<M: Infer> {
    pub engine: Arc<InferEngine<M>>,
    pub freeze_s: f64,
    pub restore_s: f64,
    pub capture_s: f64,
    pub artifact_bytes: usize,
}

/// `freeze` → `restore` → `InferEngine::new` → first `run` of each served
/// shape (the plan captures).
pub fn build<A: App>(
    app: &A,
    model: &A::Model,
    ps: &ParamSet,
    bf16: bool,
    pool: &[Req<A>],
    tr: &mut Tracer,
) -> Built<A::Model>
where
    Req<A>: Clone,
{
    tr.open("serve_build", None);
    let cfg = app.model_config(model);
    let (blob, freeze_s) = tr.timed("serve.freeze", None, || freeze(&cfg, ps));
    let (restored, restore_s) = tr.timed("serve.restore", None, || restore(&blob));
    let (frozen, frozen_ps) = restored.expect("a fresh artifact restores");
    let served = app
        .thaw(frozen)
        .expect("the artifact names this workload's family");
    let engine = tr.span("serve.engine_new", None, || {
        Arc::new(InferEngine::new(served, frozen_ps).with_bf16(bf16))
    });
    let mut shapes = vec![pool[..OFFLINE_ROWS.min(pool.len())].to_vec()];
    shapes.extend(app.small_shapes(pool));
    let mut capture_s = 0.0;
    for reqs in &shapes {
        capture_s += tr
            .timed("serve.capture", Some(reqs.len() as u32), || {
                engine.run(reqs, &vec![(); reqs.len()]);
            })
            .1;
    }
    tr.close();
    Built {
        engine,
        freeze_s,
        restore_s,
        capture_s,
        artifact_bytes: blob.len(),
    }
}

/// Judges served rows against their oracles and books one op per row.
pub struct RowJudge<'a, A: App> {
    app: &'a A,
    oracles: &'a [Vec<Out<A>>],
    bf16: bool,
    pub rows: u64,
    same_argmax: u64,
    max_drift: f64,
}

impl<'a, A: App> RowJudge<'a, A> {
    pub fn new(app: &'a A, oracles: &'a [Vec<Out<A>>], bf16: bool) -> Self {
        Self {
            app,
            oracles,
            bf16,
            rows: 0,
            same_argmax: 0,
            max_drift: 0.0,
        }
    }

    /// Row `pool_index`'s served output. An f32 engine must reproduce the
    /// oracle exactly; a bf16 engine must stay within the drift bound.
    pub fn row(&mut self, pool_index: usize, out: &Out<A>, checks: &mut Checks) {
        let v = self.app.judge(out, &self.oracles[pool_index]);
        self.rows += 1;
        self.same_argmax += u64::from(v.same_argmax);
        self.max_drift = self.max_drift.max(v.drift);
        checks.op(if self.bf16 {
            v.drift <= BF16_MAX_DRIFT
        } else {
            v.exact
        });
    }

    /// Records, for a bf16 engine, the largest drift and how many rows kept
    /// their class. Class agreement is reported, not enforced: rounding can
    /// only flip a row whose f32 top-two margin is below twice its drift, and
    /// how many such near-ties a model has depends on how well its training
    /// went (see the README's finding on `mnist_b256_dp2`).
    pub fn finish(&self, checks: &mut Checks) {
        if self.bf16 {
            checks.named(
                "bf16_drift",
                self.max_drift <= BF16_MAX_DRIFT,
                format!(
                    "max logit drift {:.4} (bound {BF16_MAX_DRIFT}); {:.4} of {} rows keep their class",
                    self.max_drift,
                    self.same_argmax as f64 / self.rows.max(1) as f64,
                    self.rows
                ),
            );
        }
    }
}

/// `InferEngine::run` on 64-row batches for `secs`; returns each call as a
/// piece on `clock`, which is sampled between calls. Every output row is
/// judged (outside the timed call).
pub fn offline<A: App>(
    engine: &InferEngine<A::Model>,
    pool: &[Req<A>],
    secs: f64,
    clock: &mut RefClock,
    judge: &mut RowJudge<'_, A>,
    checks: &mut Checks,
) -> Vec<Piece>
where
    Req<A>: Clone,
{
    let rows = OFFLINE_ROWS.min(pool.len());
    let batches: Vec<Vec<Req<A>>> = pool.chunks_exact(rows).map(<[_]>::to_vec).collect();
    let states = vec![(); rows];
    let mut calls = Vec::new();
    let start = Instant::now();
    clock.sample();
    while start.elapsed().as_secs_f64() < secs {
        let k = calls.len() % batches.len();
        let (outs, call) = clock.time(|| engine.run(&batches[k], &states));
        calls.push(call);
        for (i, (out, ())) in outs.iter().enumerate() {
            judge.row(k * rows + i, out, checks);
        }
        clock.tick();
    }
    clock.sample();
    calls
}

/// One answered query: the request's pool index, its latency in seconds,
/// and the output.
type Answer<A> = (usize, f64, Out<A>);

/// What one closed-loop leg observed.
pub struct Closed {
    /// Per-query latency in seconds, all clients.
    pub latencies: Vec<f64>,
    pub stats: ServerStats,
    /// Client spans, when the leg was traced.
    pub client_traces: Vec<Tracer>,
}

/// Closed loop: [`CLIENTS`] threads, each owning one `ServerSession` and
/// issuing back-to-back `query` calls until `secs` have passed and it has
/// made at least `min_queries`. With `traced` (the caller's tracer, inside
/// the span that owns this leg), each query runs under a `serve.query` span
/// on its client's own recorder, returned for merging.
pub fn closed_loop<A: App>(
    engine: &Arc<InferEngine<A::Model>>,
    pool: &[Req<A>],
    secs: f64,
    min_queries: usize,
    traced: Option<&Tracer>,
    judge: &mut RowJudge<'_, A>,
    checks: &mut Checks,
) -> Closed
where
    Req<A>: Clone + Sync,
    Out<A>: Send,
{
    let server = Server::start(
        Arc::clone(engine),
        BatchConfig {
            max_batch: CLIENTS,
            max_wait: Duration::from_millis(2),
        },
    );
    let stride = pool.len() / CLIENTS;
    let per_client: Vec<(Vec<Answer<A>>, Option<Tracer>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut session = server.session();
                let mut tr = traced.map(|tr| tr.fork(c as u32 + 1));
                s.spawn(move || {
                    let mut seen = Vec::new();
                    let start = Instant::now();
                    while seen.len() < min_queries || start.elapsed().as_secs_f64() < secs {
                        let k = (c * stride + seen.len()) % pool.len();
                        let req = pool[k].clone();
                        let t = Instant::now();
                        let out = match &mut tr {
                            Some(tr) => tr.span("serve.query", Some(seen.len() as u32), || {
                                session.query(req)
                            }),
                            None => session.query(req),
                        };
                        seen.push((k, t.elapsed().as_secs_f64(), out));
                    }
                    (seen, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let stats = server.shutdown();
    let mut latencies = Vec::new();
    let mut client_traces = Vec::new();
    for (seen, tr) in per_client {
        for (k, lat, out) in &seen {
            latencies.push(*lat);
            judge.row(*k, out, checks);
        }
        client_traces.extend(tr);
    }
    Closed {
        latencies,
        stats,
        client_traces,
    }
}
