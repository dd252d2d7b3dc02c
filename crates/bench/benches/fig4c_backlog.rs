//! Figure 4(c): data-to-broadcast backlog over 48 h per rate / catalog size.
//!
//! Prints the hourly backlog series (MB) for each (rate, N) pair. Knobs:
//! `SONIC_FIG4C_HOURS`, `SONIC_FIG4C_SCALE`.

use sonic_sim::experiments::fig4c::{run_experiment, Config};
use sonic_sim::report::Table;

fn main() {
    let cfg = Config::default();
    println!(
        "Figure 4(c) — backlog over {} h (size scale {}, calibration applied)",
        cfg.hours, cfg.scale
    );
    let res = run_experiment(&cfg);
    println!(
        "mean content inflow (N=100): {:.1} kbps (calibration x{:.3})",
        res.inflow_bps_n100 / 1000.0,
        res.calibration
    );

    let mut table = Table::new(&["series", "peak MB", "mean MB", "idle hours", "final MB"]);
    for (s, t) in &res.traces {
        let peak = t.hourly_backlog.iter().copied().fold(0.0f64, f64::max);
        let mean = t.hourly_backlog.iter().sum::<f64>() / t.hourly_backlog.len() as f64;
        table.row(&[
            format!("Rate:{}kbps N:{}", s.rate_bps / 1000, s.n_pages),
            format!("{:.1}", peak / 1e6),
            format!("{:.1}", mean / 1e6),
            format!("{}", t.idle_hours),
            format!("{:.1}", t.hourly_backlog.last().copied().unwrap_or(0.0) / 1e6),
        ]);
    }
    println!("{}", table.render());

    // Full hourly series as CSV.
    let mut csv = Table::new(&["hour", "r10_n100", "r20_n100", "r40_n100", "r20_n200"]);
    let hours = res.traces[0].1.hourly_backlog.len();
    for h in 0..hours {
        let mut row = vec![h.to_string()];
        for (_, t) in &res.traces {
            row.push(format!("{:.0}", t.hourly_backlog[h]));
        }
        csv.row(&row);
    }
    let out = std::path::Path::new("target/fig4c.csv");
    if csv.write_csv(out).is_ok() {
        println!("hourly series written to {}", out.display());
    }
    println!("paper shape: 10 kbps bounded but rarely idle; 20/40 kbps drain to zero; N=200@20k ~ N=100@10k");
}
