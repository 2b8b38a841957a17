//! Golden programs: the plans compiled for steps shaped like the
//! benchmark's. Each training plan must have the per-kernel instruction
//! histogram and the forward / backward instruction counts recorded when
//! backward rules lived in the plan compiler, and an arena, peak live set,
//! op state and scratch no larger than recorded then — so a change to how
//! the backward is built cannot silently change what a replay runs or what
//! it holds. The forward-only serving plans come after them: their op
//! buffers are one shared buffer, so their op state is the largest single
//! op's buffer.

use legw::{DropPlan, ExecConfig, Executor, MnistStep, PtbStep, Seq2SeqStep, ShardStep};
use legw_autograd::PlanStats;
use legw_data::{SynthImageNet, SynthMnist, SynthPtb, SynthTranslation, TranslationBatch};
use legw_models::{
    Infer, LmState, MnistLstm, PtbLm, PtbLmConfig, ResNet, Seq2Seq, Seq2SeqConfig, StepPlan,
};
use legw_nn::ParamSet;
use legw_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One recorded program: `describe()`'s kernel histogram, then
/// `[fwd, bwd, arena, peak_live, state, scratch, panels]`.
struct Golden {
    name: &'static str,
    kinds: &'static str,
    stats: [usize; 7],
}

const MNIST: &str = "Gemm=35 AddBias=2 Tanh=1 PreactSeqF=1 RecurStepF=28 LstmF=28 CeF=1 CeG=1 \
    ScaleG=2 ColSumG=3 LstmG=28 RecurSeqG=28 GemmAcc=27 BlockG=2 TanhG=1";
const SEQ2SEQ: &str = "EmbedF=11 CopyBlock=15 PreactSeqF=3 RecurStepF=15 LstmF=27 \
    ConcatColsF=35 Gemm=122 EwAdd=59 Tanh=30 SoftmaxF=6 SliceColsF=30 RowScale=30 AddBias=18 \
    CeF=6 Scale=1 ScaleG=137 CeG=6 ColSumG=21 ColsBlockG=87 LstmG=27 RowScaleDx=30 \
    RowScaleDs=30 ColsScatterG=30 SoftmaxG=6 TanhG=30 GemmAcc=88 EmbedG=11 RecurSeqG=15 BlockG=21";
const SEQ2SEQ_DP2: &str = "EmbedF=11 CopyBlock=15 PreactSeqF=3 RecurStepF=15 LstmF=27 \
    ConcatColsF=35 Gemm=122 EwAdd=59 Tanh=30 SoftmaxF=6 SliceColsF=30 RowScale=30 AddBias=18 \
    CeF=6 EwMul=6 Scale=1 ScaleG=137 MulG=6 CeG=6 ColSumG=21 ColsBlockG=87 LstmG=27 \
    RowScaleDx=30 RowScaleDs=30 ColsScatterG=30 SoftmaxG=6 TanhG=30 GemmAcc=88 EmbedG=11 \
    RecurSeqG=15 BlockG=21";

const GOLDEN: [Golden; 10] = [
    Golden {
        name: "mnist_b32",
        kinds: MNIST,
        stats: [63, 125, 4459012, 3522560, 2295040, 4096, 7],
    },
    Golden {
        name: "mnist_b256_dp2",
        kinds: MNIST,
        stats: [63, 125, 17049604, 13303808, 9180160, 4096, 7],
    },
    Golden {
        name: "resnet_b128",
        kinds: "ConvF=9 BnF=9 Relu=7 EwAdd=3 GapF=1 Gemm=3 AddBias=1 CeF=1 CeG=1 ScaleG=7 \
            ColSumG=1 GapG=1 ReluG=7 BnG=9 ConvG=9",
        stats: [32, 37, 8433668, 5767168, 44439552, 1048672, 19],
    },
    Golden {
        name: "seq2seq_b16",
        kinds: SEQ2SEQ,
        stats: [345, 602, 434508, 275204, 283776, 3456, 24],
    },
    Golden {
        name: "seq2seq_b16_dp2",
        kinds: SEQ2SEQ_DP2,
        stats: [351, 608, 241836, 137604, 141888, 3456, 24],
    },
    Golden {
        name: "ptb_dropout",
        kinds: "EmbedF=6 DropoutF=12 CopyBlock=12 PreactSeqF=2 RecurStepF=12 LstmF=12 Gemm=19 \
            AddBias=6 CeF=6 EwAdd=5 Scale=1 ScaleG=17 CeG=6 ColSumG=8 DropoutG=12 GemmAcc=25 \
            LstmG=12 RecurSeqG=12 BlockG=16 EmbedG=6",
        stats: [80, 127, 38412, 32256, 34560, 2688, 10],
    },
    // The serving plans at 64 rows. Op state is the largest op's buffer:
    // one LstmF's (64 · 5 · 128 floats); the widest ConvF's columns and
    // product (64 · 32 · 32 · (72 + 8) floats); in each seq2seq plan one
    // LstmF's (64 · 5 · 32 floats).
    Golden {
        name: "mnist_serve_b64",
        kinds: "Gemm=2 AddBias=2 Tanh=1 PreactSeqF=1 RecurStepF=28 LstmF=28",
        stats: [62, 0, 5570560, 4587520, 163840, 0, 4],
    },
    Golden {
        name: "resnet_serve_b64",
        kinds: "ConvF=9 DropoutF=9 EwAdd=12 Relu=7 GapF=1 Gemm=1 AddBias=1",
        stats: [40, 0, 6291456, 6291456, 20971520, 0, 10],
    },
    Golden {
        name: "seq2seq_encoder_b64",
        kinds: "EmbedF=5 CopyBlock=15 PreactSeqF=3 RecurStepF=15 LstmF=15 ConcatColsF=5 Gemm=5",
        stats: [63, 0, 368640, 286720, 40960, 0, 7],
    },
    Golden {
        name: "seq2seq_step_b64",
        kinds: "EmbedF=1 Gemm=9 EwAdd=9 Tanh=5 ConcatColsF=5 SoftmaxF=1 SliceColsF=5 RowScale=5 \
            AddBias=3 LstmF=2",
        stats: [45, 0, 83968, 73728, 40960, 0, 5],
    },
];

/// The compiled programs in `GOLDEN` order, as `describe()` and stats: the
/// six training steps — MNIST 128/128 at batch 32 and one shard of batch
/// 256 on two; ResNet width 8 on 16×16 inputs, 12 classes, batch 128;
/// seq2seq 32/32/24 at batch 16, whole and one shard of two; one PTB window
/// with dropout, recorded by its `ShardStep` and compiled as the executor
/// compiles it on a plan-cache miss — then the serving plans the benchmark's engines capture
/// for a 64-row batch: the MNIST and ResNet (32×32 requests) forwards, and
/// the seq2seq encoder and decoder step.
fn programs() -> Vec<(String, PlanStats)> {
    let two = Executor::new(ExecConfig::default().with_shards(2));
    let mut plans: Vec<StepPlan> = Vec::new();

    let mnist = SynthMnist::generate(2601, 256, 64);
    let mut ps = ParamSet::new();
    let model = MnistLstm::new(&mut ps, &mut StdRng::seed_from_u64(2601), 128, 128);
    let (bx, by) = mnist.train.gather(&(0..32).collect::<Vec<_>>());
    plans.push(model.capture_step_plan(&ps, &bx, &by).expect("mnist"));
    let (bx, by) = mnist.train.gather(&(0..256).collect::<Vec<_>>());
    let (sx, sy) = &MnistStep { model: &model, bx: &bx, by: &by }.split(&two)[0];
    plans.push(model.capture_step_plan(&ps, sx, sy).expect("mnist shard"));
    let (tx, _) = mnist.test.gather(&(0..64).collect::<Vec<_>>());
    let mnist_serve = model.capture_infer(&ps, &tx).0;

    let images = SynthImageNet::generate_sized(2601, 12, 128, 12, 16);
    let mut ps = ParamSet::new();
    let model = ResNet::new(&mut ps, &mut StdRng::seed_from_u64(2601), 8, 12);
    let (bx, by) = images.train.gather(&(0..128).collect::<Vec<_>>());
    plans.push(model.capture_step_plan(&ps, &bx, &by).expect("resnet"));
    let served = Tensor::from_vec(
        (0..64 * 3 * 32 * 32).map(|i| ((i % 29) as f32 - 14.0) / 14.0).collect(),
        &[64, 3, 32, 32],
    );
    let resnet_serve = model.capture_infer(&ps, &served).0;

    let text = SynthTranslation::generate_with(2501, 16, 4096, 256, 3, 5, false);
    let mut ps = ParamSet::new();
    let cfg = Seq2SeqConfig { vocab: text.vocab, embed: 32, hidden: 32, attn: 24, max_decode: 8 };
    let model = Seq2Seq::new(&mut ps, &mut StdRng::seed_from_u64(2501), cfg);
    let batch = &text.batches(true, 16)[0];
    plans.push(model.capture_step_plan(&ps, batch, None).expect("seq2seq"));
    let (sb, scale) = &Seq2SeqStep { model: &model, batch }.split(&two)[0];
    plans.push(model.capture_step_plan(&ps, sb, scale.as_deref()).expect("seq2seq shard"));
    let sources: Vec<Vec<usize>> = text.test[..64].iter().map(|(s, _)| s.clone()).collect();
    let seq2seq_serve = model.capture_infer(&ps, &TranslationBatch::for_inference(&sources)).0;

    let ptb = SynthPtb::generate(5, 40, 5, 6000, 1200);
    let cfg = PtbLmConfig { vocab: 40, embed: 14, hidden: 14, layers: 2, keep: 0.7 };
    let mut ps = ParamSet::new();
    let model = PtbLm::new(&mut ps, &mut StdRng::seed_from_u64(23), cfg);
    let window = &ptb.batches(true, 8, 6)[0];
    let state = LmState::zeros(&cfg, 8);
    let drop = Some(DropPlan { seed: 77, step: 0 });
    let step = PtbStep { model: &model, window, state: &state, drop };
    let mut tape = step.record(&ps, &step.split(&Executor::new(ExecConfig::default()))[0]);
    tape.graph.backward(tape.loss);
    plans.push(StepPlan::capture(&tape.graph, &tape.binding, tape.loss, &tape.outputs));

    let serving = [&mnist_serve, &resnet_serve, seq2seq_serve.encoder(), seq2seq_serve.step()];
    plans.iter().chain(serving).map(|p| (p.describe(), p.stats())).collect()
}

#[test]
fn compiled_programs_match_the_recorded_ones() {
    let programs = programs();
    assert_eq!(programs.len(), GOLDEN.len());
    for ((desc, s), want) in programs.iter().zip(&GOLDEN) {
        let kinds = desc.split_once(" | ").expect("a histogram").1;
        let (got, name) = (kinds.split_whitespace(), want.name);
        assert!(got.eq(want.kinds.split_whitespace()), "{name}: {desc}");

        let [fwd, bwd, arena, peak, state, scratch, panels] = want.stats;
        let counts = (s.fwd_instrs, s.bwd_instrs, s.panels);
        assert_eq!(counts, (fwd, bwd, panels), "{name}: {desc}");
        for (what, got, bound) in [
            ("arena", s.arena_bytes, arena),
            ("peak live", s.peak_live_bytes, peak),
            ("state", s.state_bytes, state),
            ("scratch", s.scratch_bytes, scratch),
        ] {
            assert!(got <= bound, "{name}: {what} {got} B > recorded {bound} B; {desc}");
        }
    }
}
