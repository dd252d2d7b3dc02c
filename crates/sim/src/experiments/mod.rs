//! One module per paper experiment. Each exposes a `Config` whose
//! `Default` is the size the `paper` bench target runs in full (scaled
//! down from the paper's methodology where that would take hours;
//! EXPERIMENTS.md gives both) and a `run_experiment` returning typed
//! results, which that target reports as rows of `BENCH_paper.json`.

pub mod ablation;
pub mod fig4a;
pub mod fig4b;
pub mod fig4c;
pub mod fig5;
pub mod rates;
pub mod rssi;
pub mod sizes;
pub mod viterbi;
