//! Figure 4(b): CDF of rendered-page image sizes for (Q, PH) combinations.
//!
//! Prints CDF landmarks per curve, extrapolated to full 1080-px-wide pages.
//! Knobs: `SONIC_FIG4B_SCALE`, `SONIC_FIG4B_HOURS` (the paper rendered 72
//! hourly snapshots).

use sonic_sim::experiments::fig4b::{run_experiment, Config};
use sonic_sim::report::{kb, Table};

fn main() {
    // Single-core defaults; export the env vars to run closer to paper
    // scale (see EXPERIMENTS.md).
    let cfg = Config::default();
    println!(
        "Figure 4(b) — image size CDFs (scale {}, {} hourly snapshots, 100 pages)",
        cfg.scale, cfg.hours
    );
    let res = run_experiment(&cfg);
    println!(
        "extrapolation: sizes x{:.3} calibration at 1/scale^2 (measured on full renders)",
        res.calibration
    );
    let mut table = Table::new(&["curve", "p10 KB", "p50 KB", "p75 KB", "p90 KB", "max KB"]);
    for c in &res.curves {
        let name = format!(
            "Q:{:<2} PH:{}",
            c.config.quality,
            c.config
                .pixel_height
                .map(|p| format!("{}k", p / 1000))
                .unwrap_or_else(|| "None".into())
        );
        table.row(&[
            name,
            kb(c.percentile(10.0)),
            kb(c.percentile(50.0)),
            kb(c.percentile(75.0)),
            kb(c.percentile(90.0)),
            kb(c.percentile(100.0)),
        ]);
    }
    println!("{}", table.render());
    let out = std::path::Path::new("target/fig4b.csv");
    if table.write_csv(out).is_ok() {
        println!("series written to {}", out.display());
    }
    println!("paper shape: Q10 mostly <200 KB vs ~700 KB at Q90; PH=None adds ~100 KB for 75% of pages; tails ~2x p90");
}
