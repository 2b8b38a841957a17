//! Contract tests for the application registry — fast (no training), they
//! pin the design constraints the experiments depend on.

use legw::apps::{self, App, PTB_SEQ_LEN};
use legw_schedules::Legw;

const ALL: [App; 5] = [App::MnistLstm, App::PtbSmall, App::PtbLarge, App::Gnmt, App::ImageNet];

/// Every LEGW-scaled schedule in the sweep must stay well-formed: positive
/// LR, warmup within the budget, same decay/budget as the baseline.
#[test]
fn legw_sweep_is_well_formed_for_every_app() {
    for app in ALL {
        let spec = apps::spec(app);
        let mut batch = spec.baseline.batch_size();
        while batch <= spec.max_batch {
            let s = Legw::scale_to(&spec.baseline, batch);
            assert!(s.peak_lr() > 0.0);
            assert!(
                s.warmup_epochs() <= s.total_epochs(),
                "{}: warmup {} exceeds budget {} at batch {batch}",
                spec.name,
                s.warmup_epochs(),
                s.total_epochs()
            );
            assert_eq!(s.decay(), spec.baseline.decay());
            assert_eq!(s.total_epochs(), spec.baseline.total_epochs());
            batch *= 2;
        }
    }
}

/// The binding constraint discovered while tuning this reproduction: under
/// a fixed epoch budget, the *largest* batch must still get enough
/// optimizer steps for the task to be learnable at all. Each app's dataset
/// scale is chosen so the max-batch sweep point retains ≥ 50 steps; this
/// test keeps future re-scaling honest.
#[test]
fn max_batch_keeps_enough_optimizer_steps() {
    // (app, samples-per-epoch in batch units at max batch)
    let steps_at_max = |app: App| -> f64 {
        let spec = apps::spec(app);
        let samples: f64 = match app {
            App::MnistLstm => 8192.0,
            App::PtbSmall => 80_000.0 / PTB_SEQ_LEN as f64,
            App::PtbLarge => 60_000.0 / PTB_SEQ_LEN as f64,
            App::Gnmt => 4096.0,
            App::ImageNet => 1024.0,
        };
        (samples / spec.max_batch as f64) * spec.baseline.total_epochs()
    };
    for app in ALL {
        let steps = steps_at_max(app);
        assert!(
            steps >= 50.0,
            "{:?}: only {steps:.0} optimizer steps at max batch — sweep will collapse",
            app
        );
    }
}

/// Baseline batch sizes divide their max batches in whole powers of two, so
/// the harness sweeps are exact doublings.
#[test]
fn sweeps_are_exact_doublings() {
    for app in ALL {
        let spec = apps::spec(app);
        let k = spec.max_batch / spec.baseline.batch_size();
        assert!(k.is_power_of_two() && k >= 8, "{}: k={k}", spec.name);
        assert_eq!(spec.max_batch % spec.baseline.batch_size(), 0);
    }
}

/// The registry's substitute strings must mention the actual configured
/// batch range, so Table 1 cannot silently drift from the code.
#[test]
fn table1_strings_match_configuration() {
    for app in ALL {
        let spec = apps::spec(app);
        let expect = format!("{}→{}", spec.baseline.batch_size(), spec.max_batch);
        assert!(
            spec.substitute.contains(&expect),
            "{}: substitute string '{}' does not mention batch range {expect}",
            spec.name,
            spec.substitute
        );
    }
}
