//! The image pipeline's five stages, timed one by one: page render, SWP
//! encode and decode, strip encode, interpolation repair.
//!
//! Timings only — there is no reference twin to take a ratio against, so
//! nothing is gated; `BENCH_codec.json` is the trajectory. `--smoke` runs
//! each stage once.

use sonic_bench::{time, Report};
use sonic_image::interpolate::{recover, LossMask};
use sonic_image::{codec, strip};
use sonic_pagegen::{Corpus, PageId};
use std::hint::black_box;

fn main() {
    let mut r = Report::from_args("perf_codec", "codec");
    let (samples, iters) = if r.smoke() { (1, 1) } else { (10, 3) };

    let corpus = Corpus::standard();
    r.timing(
        "pagegen_render_scale02",
        time(samples, iters, || {
            black_box(corpus.render(black_box(PageId { site: 0, page: 0 }), 9, 0.2));
        }),
    );

    let page = corpus.render(PageId { site: 0, page: 1 }, 0, 0.2);
    r.timing(
        "swp_encode_q10",
        time(samples, iters, || {
            black_box(codec::encode(black_box(&page.raster), 10));
        }),
    );
    let data = codec::encode(&page.raster, 10);
    r.timing(
        "swp_decode_q10",
        time(samples, iters, || {
            black_box(codec::decode(black_box(&data)).expect("decodes"));
        }),
    );
    r.timing(
        "strip_encode",
        time(samples, iters, || {
            black_box(strip::encode(black_box(&page.raster)));
        }),
    );
    let mask = LossMask::random(page.raster.width(), page.raster.height(), 0.1, 1);
    r.timing(
        "interpolate_10pct",
        time(samples, iters, || {
            black_box(recover(black_box(&page.raster), black_box(&mask)));
        }),
    );

    r.finish()
}
