//! Pins the generator of record. Every trained number this repository
//! records was drawn from this stream, so a change to it must fail here
//! rather than silently re-roll them. If one of these fails, the stream
//! changed: revert that, do not update the constants.
use legw_models::MnistLstm;
use legw_nn::ParamSet;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

#[test]
fn stream_of_seed_42() {
    let mut rng = StdRng::seed_from_u64(42);
    let raw: [u64; 4] = std::array::from_fn(|_| rng.next_u64());
    assert_eq!(
        raw,
        [
            0xbdd732262feb6e95,
            0x28efe333b266f103,
            0x47526757130f9f52,
            0x581ce1ff0e4ae394
        ]
    );
    // The draws below continue the same stream, so they also pin that each
    // call consumes exactly one `next_u64` (`shuffle` of n: n − 1).
    assert_eq!(rng.gen::<f32>().to_bits(), 0x3d1bc580);
    assert_eq!(rng.gen::<f64>().to_bits(), 0x3febc8863f47901b);
    assert_eq!(rng.gen_range(0..10usize), 5);
    assert_eq!(rng.gen_range(-1.0f32..1.0).to_bits(), 0x3f19ec6c);
    let mut order: Vec<usize> = (0..8).collect();
    order.shuffle(&mut rng);
    assert_eq!(order, [3, 0, 4, 2, 1, 6, 7, 5]);
}

/// Downstream of the stream: the initialisers (Box–Muller, fan-in scaling)
/// and the order in which a model's layers draw.
#[test]
fn mnist_lstm_initial_weights_at_seed_42() {
    let mut ps = ParamSet::new();
    let _ = MnistLstm::new(&mut ps, &mut StdRng::seed_from_u64(42), 64, 128);
    let weights = |name: &str| {
        let (_, p) = ps
            .iter()
            .find(|(_, p)| p.name == name)
            .expect("parameter exists");
        p.value.as_slice()
    };
    assert_eq!(weights("mnist.proj.w")[0].to_bits(), 0x3dfcaec4);
    assert_eq!(
        weights("mnist.fc.w").last().expect("not empty").to_bits(),
        0xbe3be7e1
    );
}
