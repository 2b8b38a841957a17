//! The three model families behind the four workloads, each described once
//! through [`App`]: how to make its data, call its real trainer, issue one
//! training step, evaluate, freeze, and build serving requests with their
//! live-model oracle. The pipeline in [`crate::pipeline`] is generic over it.
//!
//! Everything here goes through `pub` items of the workspace crates — the
//! benchmark times the library from outside.

use crate::trace::Tracer;
use legw::trainer::{self, TrainReport};
use legw::{Executor, MnistStep, PlanCache, ResnetStep, Seq2SeqStep, StepOutcome};
use legw_data::{SynthImageNet, SynthMnist, SynthTranslation, TranslationBatch};
use legw_models::{Infer, MnistLstm, ResNet, Seq2Seq, Seq2SeqConfig, StepPlan};
use legw_nn::{GradBuffer, ParamSet};
use legw_optim::SolverKind;
use legw_schedules::BaselineSchedule;
use legw_serve::{FrozenModel, ModelConfig};
use legw_tensor::{Conv2dGeom, Tensor};
use rand::rngs::StdRng;

/// Distinct serving requests a workload cycles through.
pub const REQUEST_POOL: usize = 256;

/// How one served row compares with the live model's answer.
pub struct RowVerdict {
    /// Equal to an acceptable oracle output, bit for bit / token for token.
    pub exact: bool,
    /// Same arg-max class (same tokens, for a decoder) as the oracle.
    pub same_argmax: bool,
    /// Largest absolute logit difference from the oracle (0 for tokens).
    pub drift: f64,
}

/// Shapes the kernel probes run at, taken from the workload's own step.
pub struct KernelShapes {
    /// `(m, k, n)` of the dominant forward GEMM, per shard.
    pub gemm: (usize, usize, usize),
    /// The forward GEMM is a convolution (`cols · Wᵀ`) rather than `x · W`.
    pub gemm_is_conv: bool,
    /// `(rows, hidden)` of the fused LSTM cell, when the model has one.
    pub lstm: Option<(usize, usize)>,
    /// `(images, geometry)` of the probed convolution, when there is one.
    pub conv: Option<(usize, Conv2dGeom)>,
}

pub trait App {
    type Data;
    type Model: Infer<RowState = ()> + Send + Sync + 'static;
    /// One training batch as the trainer's data iterator yields it.
    type Batch;

    fn generate(&self, seed: u64) -> Self::Data;
    fn schedule(&self) -> &BaselineSchedule;
    /// Solver and weight decay, as passed to `legw_optim::build`.
    fn solver(&self) -> (SolverKind, f32);
    /// Whether the trainer clips the global gradient norm (`RNN_CLIP`).
    fn clips(&self) -> bool;
    fn new_model(&self, ps: &mut ParamSet, rng: &mut StdRng, data: &Self::Data) -> Self::Model;
    fn iters_per_epoch(&self, data: &Self::Data, batch: usize) -> usize;
    /// The trainer's per-epoch batch source.
    fn epoch_batches<'a>(
        &self,
        data: &'a Self::Data,
        batch: usize,
        rng: &mut StdRng,
    ) -> Box<dyn Iterator<Item = Self::Batch> + 'a>;
    fn batch_rows(&self, b: &Self::Batch) -> usize;
    /// The first `rows` examples of a batch — one shard's share.
    fn shard(&self, b: &Self::Batch, rows: usize) -> Self::Batch;

    /// The real entry point, `legw::trainer::train_<family>`.
    fn train(&self, data: &Self::Data, seed: u64) -> TrainReport;
    /// One `Executor::step_planned` (plus the family's post-step fold),
    /// each call under its own span.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &self,
        tr: &mut Tracer,
        iter: u32,
        exec: &Executor,
        cache: &PlanCache<StepPlan>,
        model: &mut Self::Model,
        ps: &mut ParamSet,
        b: &Self::Batch,
    ) -> StepOutcome;
    /// One tape-path `Executor::step` on the same batch.
    fn tape_step(
        &self,
        exec: &Executor,
        model: &Self::Model,
        ps: &mut ParamSet,
        b: &Self::Batch,
    ) -> StepOutcome;
    /// `Executor::eval_<family>` over the test split.
    fn eval(&self, exec: &Executor, model: &Self::Model, ps: &ParamSet, data: &Self::Data) -> f64;
    fn eval_samples(&self, data: &Self::Data) -> usize;

    /// Captures one shard's training plan through the model's public API.
    fn capture(&self, model: &Self::Model, ps: &ParamSet, b: &Self::Batch) -> Option<StepPlan>;
    /// Replays it: forward + backward + gradient drain into a fresh buffer.
    fn replay(
        &self,
        model: &mut Self::Model,
        plan: &mut StepPlan,
        ps: &ParamSet,
        b: &Self::Batch,
    ) -> GradBuffer;
    /// Tape forward only (no loss backward) on a training batch.
    fn tape_forward(&self, model: &Self::Model, ps: &ParamSet, b: &Self::Batch);

    fn model_config(&self, model: &Self::Model) -> ModelConfig;
    fn thaw(&self, frozen: FrozenModel) -> Option<Self::Model>;
    /// [`REQUEST_POOL`] distinct requests drawn from the held-out data.
    fn requests(&self, data: &Self::Data, seed: u64) -> Vec<<Self::Model as Infer>::Req>;
    /// Every answer the live model may give for `req`, by `Infer::infer_tape`.
    fn oracle(
        &self,
        model: &Self::Model,
        ps: &ParamSet,
        req: &<Self::Model as Infer>::Req,
    ) -> Vec<<Self::Model as Infer>::Out>;
    fn judge(
        &self,
        out: &<Self::Model as Infer>::Out,
        oracle: &[<Self::Model as Infer>::Out],
    ) -> RowVerdict;
    /// One request batch per plan shape the serving legs will hit, beyond
    /// the 64-row offline batch: 1- and 2-row batches at every length.
    fn small_shapes(
        &self,
        pool: &[<Self::Model as Infer>::Req],
    ) -> Vec<Vec<<Self::Model as Infer>::Req>>;

    fn kernel_shapes(&self, shard_rows: usize) -> KernelShapes;
}

fn judge_logits(out: &[f32], oracle: &[Vec<f32>]) -> RowVerdict {
    let argmax = |v: &[f32]| {
        v.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
    };
    let want = &oracle[0];
    let drift = out
        .iter()
        .zip(want)
        .map(|(a, b)| (a - b).abs() as f64)
        .fold(0.0f64, f64::max);
    RowVerdict {
        exact: oracle.iter().any(|o| o.as_slice() == out),
        same_argmax: argmax(out) == argmax(want),
        drift,
    }
}

fn classification_oracle<M>(model: &M, ps: &ParamSet, req: &Vec<f32>) -> Vec<Vec<f32>>
where
    M: Infer<Req = Vec<f32>, Out = Vec<f32>, RowState = ()>,
{
    let batch = model.assemble(std::slice::from_ref(req), &[()]);
    model
        .infer_tape(ps, &batch)
        .into_iter()
        .map(|(out, ())| out)
        .collect()
}

/// One- and two-row batches of fixed-shape requests.
fn fixed_small_shapes<R: Clone>(pool: &[R]) -> Vec<Vec<R>> {
    vec![pool[..1].to_vec(), pool[..2].to_vec()]
}

// ---------------------------------------------------------------- MNIST LSTM

/// §5.1.1 MNIST LSTM (`mnist_b32`, `mnist_b256_dp2`).
pub struct MnistApp {
    pub train_n: usize,
    pub test_n: usize,
    pub proj: usize,
    pub hidden: usize,
    pub schedule: BaselineSchedule,
}

impl App for MnistApp {
    type Data = SynthMnist;
    type Model = MnistLstm;
    type Batch = (Tensor, Vec<usize>);

    fn generate(&self, seed: u64) -> SynthMnist {
        SynthMnist::generate(seed, self.train_n, self.test_n)
    }

    fn schedule(&self) -> &BaselineSchedule {
        &self.schedule
    }

    fn solver(&self) -> (SolverKind, f32) {
        (SolverKind::Momentum, 0.0)
    }

    fn clips(&self) -> bool {
        true
    }

    fn new_model(&self, ps: &mut ParamSet, rng: &mut StdRng, _data: &SynthMnist) -> MnistLstm {
        MnistLstm::new(ps, rng, self.proj, self.hidden)
    }

    fn iters_per_epoch(&self, data: &SynthMnist, batch: usize) -> usize {
        data.train.iters_per_epoch(batch)
    }

    fn epoch_batches<'a>(
        &self,
        data: &'a SynthMnist,
        batch: usize,
        rng: &mut StdRng,
    ) -> Box<dyn Iterator<Item = Self::Batch> + 'a> {
        Box::new(data.train.epoch_batches(batch, rng))
    }

    fn batch_rows(&self, b: &Self::Batch) -> usize {
        b.1.len()
    }

    fn shard(&self, (bx, by): &Self::Batch, rows: usize) -> Self::Batch {
        (bx.rows(0, rows), by[..rows].to_vec())
    }

    fn train(&self, data: &SynthMnist, seed: u64) -> TrainReport {
        let (solver, _) = self.solver();
        trainer::train_mnist(data, self.proj, self.hidden, &self.schedule, solver, seed)
    }

    fn step(
        &self,
        tr: &mut Tracer,
        iter: u32,
        exec: &Executor,
        cache: &PlanCache<StepPlan>,
        model: &mut MnistLstm,
        ps: &mut ParamSet,
        (bx, by): &Self::Batch,
    ) -> StepOutcome {
        tr.span("core.step_planned", Some(iter), || {
            exec.step_planned(&MnistStep { model, bx, by }, ps, cache).0
        })
    }

    fn tape_step(
        &self,
        exec: &Executor,
        model: &MnistLstm,
        ps: &mut ParamSet,
        (bx, by): &Self::Batch,
    ) -> StepOutcome {
        exec.step(&MnistStep { model, bx, by }, ps).0
    }

    fn eval(&self, exec: &Executor, model: &MnistLstm, ps: &ParamSet, data: &SynthMnist) -> f64 {
        exec.eval_mnist(model, ps, &data.test, 256)
    }

    fn eval_samples(&self, data: &SynthMnist) -> usize {
        data.test.len()
    }

    fn capture(
        &self,
        model: &MnistLstm,
        ps: &ParamSet,
        (bx, by): &Self::Batch,
    ) -> Option<StepPlan> {
        model.capture_step_plan(ps, bx, by)
    }

    fn replay(
        &self,
        model: &mut MnistLstm,
        plan: &mut StepPlan,
        ps: &ParamSet,
        (bx, by): &Self::Batch,
    ) -> GradBuffer {
        model.replay_step_plan(plan, ps, bx, by);
        let mut buf = GradBuffer::for_params(ps);
        plan.write_grads_to(&mut buf);
        buf
    }

    fn tape_forward(&self, model: &MnistLstm, ps: &ParamSet, (bx, _): &Self::Batch) {
        std::hint::black_box(model.forward_infer(ps, bx));
    }

    fn model_config(&self, _model: &MnistLstm) -> ModelConfig {
        ModelConfig::MnistLstm {
            proj: self.proj,
            hidden: self.hidden,
        }
    }

    fn thaw(&self, frozen: FrozenModel) -> Option<MnistLstm> {
        match frozen {
            FrozenModel::MnistLstm(m) => Some(m),
            _ => None,
        }
    }

    fn requests(&self, data: &SynthMnist, _seed: u64) -> Vec<Vec<f32>> {
        feature_rows(&data.test.features, REQUEST_POOL)
    }

    fn oracle(&self, model: &MnistLstm, ps: &ParamSet, req: &Vec<f32>) -> Vec<Vec<f32>> {
        classification_oracle(model, ps, req)
    }

    fn judge(&self, out: &Vec<f32>, oracle: &[Vec<f32>]) -> RowVerdict {
        judge_logits(out, oracle)
    }

    fn small_shapes(&self, pool: &[Vec<f32>]) -> Vec<Vec<Vec<f32>>> {
        fixed_small_shapes(pool)
    }

    fn kernel_shapes(&self, shard_rows: usize) -> KernelShapes {
        // The recurrent product h·W_h, issued 28 times per step.
        KernelShapes {
            gemm: (shard_rows, self.hidden, 4 * self.hidden),
            gemm_is_conv: false,
            lstm: Some((shard_rows, self.hidden)),
            conv: None,
        }
    }
}

/// The first `n` samples of a `[N, …]` feature tensor, one flat row each
/// (cycling when the split is smaller than `n`).
fn feature_rows(features: &Tensor, n: usize) -> Vec<Vec<f32>> {
    let rows = features.dim(0);
    let width = features.numel() / rows;
    let flat = features.as_slice();
    (0..n)
        .map(|i| i % rows)
        .map(|r| flat[r * width..(r + 1) * width].to_vec())
        .collect()
}

// -------------------------------------------------------------------- ResNet

/// §6 ResNet stand-in under LARS (`resnet_b128_lars`).
pub struct ResnetApp {
    pub classes: usize,
    pub train_n: usize,
    pub test_n: usize,
    pub side: usize,
    pub width: usize,
    pub top_k: usize,
    pub weight_decay: f32,
    pub schedule: BaselineSchedule,
}

impl App for ResnetApp {
    type Data = SynthImageNet;
    type Model = ResNet;
    type Batch = (Tensor, Vec<usize>);

    fn generate(&self, seed: u64) -> SynthImageNet {
        SynthImageNet::generate_sized(seed, self.classes, self.train_n, self.test_n, self.side)
    }

    fn schedule(&self) -> &BaselineSchedule {
        &self.schedule
    }

    fn solver(&self) -> (SolverKind, f32) {
        (SolverKind::Lars, self.weight_decay)
    }

    fn clips(&self) -> bool {
        false
    }

    fn new_model(&self, ps: &mut ParamSet, rng: &mut StdRng, data: &SynthImageNet) -> ResNet {
        ResNet::new(ps, rng, self.width, data.n_classes)
    }

    fn iters_per_epoch(&self, data: &SynthImageNet, batch: usize) -> usize {
        data.train.iters_per_epoch(batch)
    }

    fn epoch_batches<'a>(
        &self,
        data: &'a SynthImageNet,
        batch: usize,
        rng: &mut StdRng,
    ) -> Box<dyn Iterator<Item = Self::Batch> + 'a> {
        Box::new(data.train.epoch_batches(batch, rng))
    }

    fn batch_rows(&self, b: &Self::Batch) -> usize {
        b.1.len()
    }

    fn shard(&self, (bx, by): &Self::Batch, rows: usize) -> Self::Batch {
        (bx.slice_outer(0, rows), by[..rows].to_vec())
    }

    fn train(&self, data: &SynthImageNet, seed: u64) -> TrainReport {
        let (solver, wd) = self.solver();
        trainer::train_resnet(
            data,
            self.width,
            self.top_k,
            &self.schedule,
            solver,
            wd,
            seed,
        )
    }

    fn step(
        &self,
        tr: &mut Tracer,
        iter: u32,
        exec: &Executor,
        cache: &PlanCache<StepPlan>,
        model: &mut ResNet,
        ps: &mut ParamSet,
        (bx, by): &Self::Batch,
    ) -> StepOutcome {
        let (out, stats) = tr.span("core.step_planned", Some(iter), || {
            exec.step_planned(&ResnetStep { model, bx, by }, ps, cache)
        });
        tr.span("core.fold_stats", Some(iter), || {
            ResnetStep::fold_stats(model, &stats)
        });
        out
    }

    fn tape_step(
        &self,
        exec: &Executor,
        model: &ResNet,
        ps: &mut ParamSet,
        (bx, by): &Self::Batch,
    ) -> StepOutcome {
        exec.step(&ResnetStep { model, bx, by }, ps).0
    }

    fn eval(&self, exec: &Executor, model: &ResNet, ps: &ParamSet, data: &SynthImageNet) -> f64 {
        exec.eval_resnet(model, ps, &data.test, 128, self.top_k).0
    }

    fn eval_samples(&self, data: &SynthImageNet) -> usize {
        data.test.len()
    }

    fn capture(&self, model: &ResNet, ps: &ParamSet, (bx, by): &Self::Batch) -> Option<StepPlan> {
        model.capture_step_plan(ps, bx, by)
    }

    fn replay(
        &self,
        model: &mut ResNet,
        plan: &mut StepPlan,
        ps: &ParamSet,
        (bx, by): &Self::Batch,
    ) -> GradBuffer {
        model.replay_step_plan(plan, ps, bx, by);
        let mut buf = GradBuffer::for_params(ps);
        plan.write_grads_to(&mut buf);
        buf
    }

    fn tape_forward(&self, model: &ResNet, ps: &ParamSet, (bx, _): &Self::Batch) {
        std::hint::black_box(model.forward_infer(ps, bx));
    }

    fn model_config(&self, model: &ResNet) -> ModelConfig {
        ModelConfig::ResNet {
            width: self.width,
            n_classes: model.n_classes(),
            bn_stats: model.bn_running_stats(),
        }
    }

    fn thaw(&self, frozen: FrozenModel) -> Option<ResNet> {
        match frozen {
            FrozenModel::ResNet(m) => Some(m),
            _ => None,
        }
    }

    /// `Infer for ResNet` fixes a request at 3·32·32 floats whatever side
    /// the model was trained at (global average pooling makes the network
    /// size-agnostic), so the serve leg draws 32×32 renders of the same
    /// texture classes: same seed, hence the same class specs.
    fn requests(&self, _data: &SynthImageNet, seed: u64) -> Vec<Vec<f32>> {
        let served = SynthImageNet::generate(seed, self.classes, self.classes, REQUEST_POOL);
        feature_rows(&served.test.features, REQUEST_POOL)
    }

    fn oracle(&self, model: &ResNet, ps: &ParamSet, req: &Vec<f32>) -> Vec<Vec<f32>> {
        classification_oracle(model, ps, req)
    }

    fn judge(&self, out: &Vec<f32>, oracle: &[Vec<f32>]) -> RowVerdict {
        judge_logits(out, oracle)
    }

    fn small_shapes(&self, pool: &[Vec<f32>]) -> Vec<Vec<Vec<f32>>> {
        fixed_small_shapes(pool)
    }

    fn kernel_shapes(&self, shard_rows: usize) -> KernelShapes {
        // Second conv of stage b2: 2w→2w channels, 3×3, at side/2. Every
        // 3×3 conv of the net costs about the same FLOPs; this one has the
        // middle K (C·KH·KW = 18w).
        let c = 2 * self.width;
        let geom = Conv2dGeom {
            c,
            h: self.side / 2,
            w: self.side / 2,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        KernelShapes {
            gemm: (shard_rows * geom.oh() * geom.ow(), c * 9, c),
            gemm_is_conv: true,
            lstm: None,
            conv: Some((shard_rows, geom)),
        }
    }
}

// ------------------------------------------------------------------- seq2seq

/// §5.1.3 GNMT-style seq2seq (`seq2seq_b16`).
pub struct Seq2SeqApp {
    pub content: usize,
    pub train_n: usize,
    pub test_n: usize,
    pub min_len: usize,
    pub max_len: usize,
    pub embed: usize,
    pub hidden: usize,
    pub attn: usize,
    pub max_decode: usize,
    pub schedule: BaselineSchedule,
}

impl Seq2SeqApp {
    fn config(&self, vocab: usize) -> Seq2SeqConfig {
        Seq2SeqConfig {
            vocab,
            embed: self.embed,
            hidden: self.hidden,
            attn: self.attn,
            max_decode: self.max_decode,
        }
    }
}

impl App for Seq2SeqApp {
    type Data = SynthTranslation;
    type Model = Seq2Seq;
    type Batch = TranslationBatch;

    fn generate(&self, seed: u64) -> SynthTranslation {
        SynthTranslation::generate_with(
            seed,
            self.content,
            self.train_n,
            self.test_n,
            self.min_len,
            self.max_len,
            false,
        )
    }

    fn schedule(&self) -> &BaselineSchedule {
        &self.schedule
    }

    fn solver(&self) -> (SolverKind, f32) {
        (SolverKind::Momentum, 0.0)
    }

    fn clips(&self) -> bool {
        true
    }

    fn new_model(&self, ps: &mut ParamSet, rng: &mut StdRng, data: &SynthTranslation) -> Seq2Seq {
        Seq2Seq::new(ps, rng, self.config(data.vocab))
    }

    fn iters_per_epoch(&self, data: &SynthTranslation, batch: usize) -> usize {
        data.iters_per_epoch(batch)
    }

    fn epoch_batches<'a>(
        &self,
        data: &'a SynthTranslation,
        batch: usize,
        _rng: &mut StdRng,
    ) -> Box<dyn Iterator<Item = TranslationBatch> + 'a> {
        Box::new(data.batches(true, batch).into_iter())
    }

    fn batch_rows(&self, b: &TranslationBatch) -> usize {
        b.batch_size()
    }

    fn shard(&self, b: &TranslationBatch, rows: usize) -> TranslationBatch {
        b.slice(0, rows)
    }

    fn train(&self, data: &SynthTranslation, seed: u64) -> TrainReport {
        let (solver, _) = self.solver();
        trainer::train_seq2seq(data, self.config(data.vocab), &self.schedule, solver, seed)
    }

    fn step(
        &self,
        tr: &mut Tracer,
        iter: u32,
        exec: &Executor,
        cache: &PlanCache<StepPlan>,
        model: &mut Seq2Seq,
        ps: &mut ParamSet,
        batch: &TranslationBatch,
    ) -> StepOutcome {
        tr.span("core.step_planned", Some(iter), || {
            exec.step_planned(&Seq2SeqStep { model, batch }, ps, cache)
                .0
        })
    }

    fn tape_step(
        &self,
        exec: &Executor,
        model: &Seq2Seq,
        ps: &mut ParamSet,
        batch: &TranslationBatch,
    ) -> StepOutcome {
        exec.step(&Seq2SeqStep { model, batch }, ps).0
    }

    fn eval(
        &self,
        exec: &Executor,
        model: &Seq2Seq,
        ps: &ParamSet,
        data: &SynthTranslation,
    ) -> f64 {
        exec.eval_seq2seq_bleu(model, ps, data, 64)
    }

    fn eval_samples(&self, data: &SynthTranslation) -> usize {
        data.test.len()
    }

    fn capture(&self, model: &Seq2Seq, ps: &ParamSet, b: &TranslationBatch) -> Option<StepPlan> {
        model.capture_encoder_plan(ps, b)
    }

    fn replay(
        &self,
        model: &mut Seq2Seq,
        plan: &mut StepPlan,
        ps: &ParamSet,
        b: &TranslationBatch,
    ) -> GradBuffer {
        let mut buf = GradBuffer::for_params(ps);
        model.planned_loss_grads(ps, b, None, plan, &mut buf);
        buf
    }

    fn tape_forward(&self, model: &Seq2Seq, ps: &ParamSet, b: &TranslationBatch) {
        std::hint::black_box(model.forward_loss(ps, b));
    }

    fn model_config(&self, model: &Seq2Seq) -> ModelConfig {
        let c = model.config();
        ModelConfig::Seq2Seq {
            vocab: c.vocab,
            embed: c.embed,
            hidden: c.hidden,
            attn: c.attn,
            max_decode: c.max_decode,
        }
    }

    fn thaw(&self, frozen: FrozenModel) -> Option<Seq2Seq> {
        match frozen {
            FrozenModel::Seq2Seq(m) => Some(m),
            _ => None,
        }
    }

    fn requests(&self, data: &SynthTranslation, _seed: u64) -> Vec<Vec<usize>> {
        (0..REQUEST_POOL)
            .map(|i| data.test[i % data.test.len()].0.clone())
            .collect()
    }

    /// The encoder does not mask PAD, so a row's decode depends on how far
    /// its batch was padded: with ragged traffic the batcher may pair a
    /// source with a longer one. Every padded length from the row's own up
    /// to the corpus maximum is therefore a legitimate live-model answer.
    fn oracle(&self, model: &Seq2Seq, ps: &ParamSet, req: &Vec<usize>) -> Vec<Vec<usize>> {
        let mut outs: Vec<Vec<usize>> = Vec::new();
        for padded in req.len()..=self.max_len {
            let filler = vec![req[0]; padded];
            let batch = TranslationBatch::for_inference(&[req.clone(), filler]);
            let out = model.infer_tape(ps, &batch).swap_remove(0).0;
            if !outs.contains(&out) {
                outs.push(out);
            }
        }
        outs
    }

    fn judge(&self, out: &Vec<usize>, oracle: &[Vec<usize>]) -> RowVerdict {
        let exact = oracle.contains(out);
        RowVerdict {
            exact,
            same_argmax: exact,
            drift: 0.0,
        }
    }

    fn small_shapes(&self, pool: &[Vec<usize>]) -> Vec<Vec<Vec<usize>>> {
        let mut shapes = Vec::new();
        for len in self.min_len..=self.max_len {
            if let Some(req) = pool.iter().find(|r| r.len() == len) {
                shapes.push(vec![req.clone()]);
                shapes.push(vec![req.clone(), req.clone()]);
            }
        }
        shapes
    }

    fn kernel_shapes(&self, shard_rows: usize) -> KernelShapes {
        // An encoder cell's recurrent product.
        KernelShapes {
            gemm: (shard_rows, self.hidden, 4 * self.hidden),
            gemm_is_conv: false,
            lstm: Some((shard_rows, self.hidden)),
            conv: None,
        }
    }
}
