//! §4 "Variable RSSI": frame loss across receiver signal strengths.
//!
//! Knobs: `SONIC_RSSI_REPS`, `SONIC_RSSI_BURSTS`.

use sonic_sim::experiments::rssi::{run_experiment, Config};
use sonic_sim::report::{pct, Table};

fn main() {
    let cfg = Config::default();
    println!(
        "Variable RSSI — frame loss over the FM chain, cable client ({} reps x {} bursts)",
        cfg.reps, cfg.bursts_per_rep
    );
    let results = run_experiment(&cfg);
    let mut table = Table::new(&["RSSI dB", "mean loss", "min", "median", "max"]);
    for r in &results {
        table.row(&[
            format!("{:.0}", r.rssi_db),
            pct(r.mean_loss),
            pct(r.summary.min),
            pct(r.summary.median),
            pct(r.summary.max),
        ]);
    }
    println!("{}", table.render());
    let out = std::path::Path::new("target/rssi.csv");
    if table.write_csv(out).is_ok() {
        println!("series written to {}", out.display());
    }
    println!("paper bands: no loss in [-85,-65]; fluctuating loss in (-90,-85); no frames below -90");
}
