//! Performance acceptance bench for the country-scale scenario engine PR.
//!
//! Three measurements on `sonic_sim::scenario`:
//!
//! 1. **Fast-path throughput gate** — a 4-hour × 100 k-listener run with
//!    the DSP escalation tier disabled, timed end to end (population
//!    build, carousel, weather, mobility, batched frame-fate evaluation,
//!    aggregation). Acceptance: ≥ 50 000 listener-hours per second.
//! 2. **Constant-memory budget** — the full 72-hour × 100 k-listener
//!    national run must finish with its aggregates under 256 kB and its
//!    per-listener engine state under 16 MB, regardless of how many
//!    billions of frame fates were folded in.
//! 3. **Replay identity** — the same seed must render byte-identical
//!    reports at worker counts 1 and 5 (checked on a 2-hour slice so the
//!    bench stays minutes, not hours; the engine's epoch jobs make the
//!    full run identical by the same argument).
//!
//! The throughput gate is the engine's stated floor, not a noise margin:
//! this host reads 20–25 × above it (CHANGES.md, PR 24).
//!
//! `--smoke` scales everything down (2 h × 2 000 listeners), still checks
//! the memory budget and replay identity, and enforces no throughput gate
//! — CI uses it to prove the engine runs and the invariants hold. A full
//! run's results go to `BENCH_natsim.json` at the repo root.

use sonic_bench::{timed, Bound, Report};
use sonic_sim::scenario::{self, ScenarioConfig};

/// Throughput the fast path must sustain, in listener-hours per second.
const GATE_LISTENER_HOURS_PER_S: f64 = 50_000.0;

/// Hard budget for the run's constant-memory aggregates, bytes.
const AGGREGATE_BUDGET_BYTES: usize = 256 * 1024;

/// Hard budget for per-listener engine state (population SoA), bytes.
const STATE_BUDGET_BYTES: usize = 16 * 1024 * 1024;

fn main() {
    let mut r = Report::from_args("perf_natsim", "natsim");
    let smoke = r.smoke();

    // --- 1. fast-path throughput ------------------------------------------
    let gate_cfg = if smoke {
        ScenarioConfig::smoke(0x4A11)
    } else {
        ScenarioConfig {
            hours: 4,
            dsp_cohort_per_hour: 0,
            ..ScenarioConfig::national(0x4A11)
        }
    };
    let (gate_run, gate_elapsed) = timed(|| scenario::run(&gate_cfg));
    r.row("fast_path.listener_hours", gate_run.listener_hours as f64, "count");
    r.row("fast_path.elapsed_s", gate_elapsed, "s");
    r.gate(
        "fast_path.listener_hours_per_s",
        gate_run.listener_hours as f64 / gate_elapsed,
        "lh/s",
        Bound::AtLeast(GATE_LISTENER_HOURS_PER_S),
    );

    // --- 2. the 72-hour national run under the memory budget ---------------
    let full_cfg = if smoke {
        ScenarioConfig::smoke(0x4A12)
    } else {
        ScenarioConfig {
            dsp_cohort_per_hour: 0,
            ..ScenarioConfig::national(0x4A12)
        }
    };
    let (full, full_elapsed) = timed(|| scenario::run(&full_cfg));
    let agg_bytes = full.aggregates.bytes();
    r.row("full_run.hours", full_cfg.hours as f64, "h");
    r.row("full_run.listeners", full_cfg.listeners as f64, "count");
    r.row("full_run.listener_hours", full.listener_hours as f64, "count");
    r.row("full_run.elapsed_s", full_elapsed, "s");
    r.row("full_run.aggregate_bytes", agg_bytes as f64, "B");
    r.row("full_run.aggregate_budget_bytes", AGGREGATE_BUDGET_BYTES as f64, "B");
    r.row("full_run.state_bytes", full.state_bytes as f64, "B");
    r.row("full_run.state_budget_bytes", STATE_BUDGET_BYTES as f64, "B");
    r.check(
        "full_run.within_memory_budget",
        agg_bytes < AGGREGATE_BUDGET_BYTES && full.state_bytes < STATE_BUDGET_BYTES,
    );

    // --- 3. replay identity across worker counts ----------------------------
    let slice = |workers: usize| ScenarioConfig {
        hours: if smoke { 1 } else { 2 },
        workers,
        dsp_cohort_per_hour: 0,
        ..full_cfg.clone()
    };
    let serial = scenario::run(&slice(1));
    let pooled = scenario::run(&slice(5));
    r.check("replay.identical_at_1_and_5_workers", serial.text == pooled.text);

    r.finish()
}
