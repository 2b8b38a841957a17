//! Cross-layer integration tests for the model crate: checkpointing
//! through every architecture and determinism. (Evaluation consistency is
//! tested where the evaluation sweeps live, in `legw::eval`.)

use legw_data::{SynthMnist, SynthTranslation};
use legw_models::{MnistLstm, PtbLm, PtbLmConfig, ResNet, Seq2Seq, Seq2SeqConfig};
use legw_nn::{checkpoint, ParamSet};
use rand::{rngs::StdRng, SeedableRng};

#[test]
fn every_architecture_checkpoints_losslessly() {
    let mut rng = StdRng::seed_from_u64(0);

    // MNIST-LSTM
    let mut ps = ParamSet::new();
    let _ = MnistLstm::new(&mut ps, &mut rng, 16, 16);
    let blob = checkpoint::save(&ps);
    let mut ps2 = ParamSet::new();
    let mut rng2 = StdRng::seed_from_u64(77);
    let _ = MnistLstm::new(&mut ps2, &mut rng2, 16, 16);
    checkpoint::load(&mut ps2, &blob).unwrap();
    assert_eq!(ps.value_norm(), ps2.value_norm());

    // PTB LM
    let mut ps = ParamSet::new();
    let cfg = PtbLmConfig { vocab: 40, embed: 12, hidden: 12, layers: 2, keep: 1.0 };
    let _ = PtbLm::new(&mut ps, &mut rng, cfg);
    let blob = checkpoint::save(&ps);
    let mut ps2 = ParamSet::new();
    let _ = PtbLm::new(&mut ps2, &mut rng2, cfg);
    checkpoint::load(&mut ps2, &blob).unwrap();
    assert_eq!(ps.value_norm(), ps2.value_norm());

    // Seq2Seq
    let mut ps = ParamSet::new();
    let scfg = Seq2SeqConfig { vocab: 20, embed: 10, hidden: 10, attn: 8, max_decode: 6 };
    let _ = Seq2Seq::new(&mut ps, &mut rng, scfg);
    let blob = checkpoint::save(&ps);
    let mut ps2 = ParamSet::new();
    let _ = Seq2Seq::new(&mut ps2, &mut rng2, scfg);
    checkpoint::load(&mut ps2, &blob).unwrap();
    assert_eq!(ps.value_norm(), ps2.value_norm());

    // ResNet
    let mut ps = ParamSet::new();
    let _ = ResNet::new(&mut ps, &mut rng, 4, 6);
    let blob = checkpoint::save(&ps);
    let mut ps2 = ParamSet::new();
    let _ = ResNet::new(&mut ps2, &mut rng2, 4, 6);
    checkpoint::load(&mut ps2, &blob).unwrap();
    assert_eq!(ps.value_norm(), ps2.value_norm());
}

#[test]
fn forward_passes_are_deterministic_given_weights() {
    let data = SynthMnist::generate(3, 32, 8);
    let mut rng = StdRng::seed_from_u64(4);
    let mut ps = ParamSet::new();
    let model = MnistLstm::new(&mut ps, &mut rng, 12, 12);
    let (bx, by) = data.train.gather(&[0, 1, 2]);
    let (g1, _, l1, _) = model.forward_loss(&ps, &bx, &by);
    let (g2, _, l2, _) = model.forward_loss(&ps, &bx, &by);
    assert_eq!(g1.value(l1).item(), g2.value(l2).item());
}

#[test]
fn greedy_decode_is_deterministic() {
    let data = SynthTranslation::generate_with(9, 10, 32, 8, 3, 4, false);
    let cfg = Seq2SeqConfig { vocab: data.vocab, embed: 10, hidden: 10, attn: 8, max_decode: 6 };
    let mut rng = StdRng::seed_from_u64(10);
    let mut ps = ParamSet::new();
    let model = Seq2Seq::new(&mut ps, &mut rng, cfg);
    let batch = &data.batches(false, 8)[0];
    assert_eq!(model.greedy_decode(&ps, batch), model.greedy_decode(&ps, batch));
    let _ = &mut ps;
}
