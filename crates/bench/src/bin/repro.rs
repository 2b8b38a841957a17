//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p legw-bench --bin repro -- <experiment> [seed]
//! ```
//!
//! Experiments: `table1 table2 table3 fig1 fig2 fig3 fig4 fig5 fig6 fig7
//! fig8 fig9 fig10 speedup sanity ablations all`. Set `LEGW_QUICK=1` for reduced
//! sweeps. Results are printed and captured under `results/*.csv`.

use legw_bench::experiments::*;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: repro <table1|table2|table3|fig1|fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|speedup|sanity|ablations|all> [seed]"
    );
    std::process::exit(2);
}

fn main() {
    legw_bench::init_threads_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(which) = args.first() else { usage() };
    let seed: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(42);

    let t0 = Instant::now();
    let run_one = |name: &str| match name {
        "table1" => tables::table1(),
        "table2" => {
            tables::table2(seed);
        }
        "table3" => {
            tables::table3(seed);
        }
        "fig1" => {
            fig_scale::fig1(seed);
        }
        "fig2" => {
            fig_schedule::fig2();
        }
        "fig3" => {
            fig_lipschitz::fig3(seed);
        }
        "fig4" => {
            speedup::fig4(seed);
        }
        "fig5" => {
            fig_mnist::fig5(seed);
        }
        "fig6" => {
            fig_scale::fig6(seed);
        }
        "fig7" => {
            fig_mnist::fig7(seed);
        }
        "fig8" => {
            fig_mnist::fig8(seed);
        }
        "fig9" => {
            fig_mnist::fig9(seed);
        }
        "fig10" => {
            fig_scale::fig10(seed);
        }
        "speedup" => {
            speedup::speedup_section7();
        }
        "sanity" => {
            tables::sanity(seed);
        }
        "ablations" => ablations::all(seed),
        "summary" => {
            summary::summary("results");
        }
        "plot" => {
            // repro plot <csv> <xcol> <ycol> [group-col]
            let a: Vec<String> = std::env::args().skip(2).collect();
            if a.len() < 3 {
                eprintln!("usage: repro plot <csv> <xcol> <ycol> [group-col]");
                std::process::exit(2);
            }
            let csv = std::fs::read_to_string(&a[0]).unwrap_or_else(|e| {
                eprintln!("cannot read {}: {e}", a[0]);
                std::process::exit(2);
            });
            match legw_bench::plot::series_from_csv(
                &csv,
                &a[1],
                &a[2],
                a.get(3).map(|s| s.as_str()),
            ) {
                Ok(series) => println!("{}", legw_bench::plot::line_chart(&series, 72, 20)),
                Err(e) => {
                    eprintln!("plot error: {e}");
                    std::process::exit(2);
                }
            }
        }
        other => {
            eprintln!("unknown experiment: {other}");
            usage();
        }
    };

    if which == "all" {
        for name in [
            "table1",
            "table2",
            "table3",
            "fig1",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "speedup",
            "ablations",
        ] {
            let t = Instant::now();
            println!("\n##### {name} #####");
            run_one(name);
            println!("[{name} took {:.1}s]", t.elapsed().as_secs_f64());
        }
    } else {
        run_one(which);
    }
    println!("\ntotal: {:.1}s", t0.elapsed().as_secs_f64());
}
