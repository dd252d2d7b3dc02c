//! Figure 5: the user study — median Likert ratings per page under
//! synthetic losses, with and without pixel interpolation.
//!
//! "We create screenshots of the top 50 Pakistani webpages … with synthetic
//! variable losses (5 %, 10 %, 20 %, and 50 %) … 400 screenshots … 151
//! students … 20 randomly selected screenshots … at least 7 ratings per
//! screenshot." The human raters are replaced by the perceptual panel model
//! in [`crate::study`] (DESIGN.md substitution table).

use crate::stats::BoxStats;
use crate::study::{measure, Panel, Question};
use sonic_image::interpolate::{blackout, recover, LossMask};
use sonic_pagegen::{Corpus, PageId};

/// Loss rates evaluated in the paper.
pub const PAPER_LOSS_RATES: [f64; 4] = [0.05, 0.10, 0.20, 0.50];

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of pages ("top 50").
    pub n_pages: usize,
    /// Render scale for the screenshots.
    pub scale: f64,
    /// Loss rates.
    pub loss_rates: Vec<f64>,
    /// Panel size (paper: 151).
    pub raters: usize,
    /// Ratings gathered per screenshot (paper: ≈7).
    pub ratings_per_shot: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n_pages: 50,
            scale: 0.2,
            loss_rates: PAPER_LOSS_RATES.to_vec(),
            raters: 151,
            ratings_per_shot: 7,
            seed: 0xF165,
        }
    }
}

/// One boxplot cell of the figure.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Loss rate.
    pub loss: f64,
    /// Whether interpolation was applied.
    pub interpolated: bool,
    /// Which question.
    pub question: Question,
    /// Median rating per page (the boxplot's underlying sample).
    pub medians: Vec<f64>,
    /// Boxplot summary.
    pub summary: BoxStats,
}

/// "Top 50 pages": the 25 landing pages plus the first internal page of
/// each site.
fn top_pages(corpus: &Corpus, n: usize) -> Vec<PageId> {
    let mut pages = Vec::new();
    for site in 0..corpus.sites.len() {
        pages.push(PageId { site, page: 0 });
    }
    for site in 0..corpus.sites.len() {
        pages.push(PageId { site, page: 1 });
    }
    pages.truncate(n);
    pages
}

/// Runs the study.
///
/// The expensive half — render, synthetic loss, interpolate, measure — is a
/// pure function per (loss rate, interpolation, page) and fans out on the
/// worker pool. The panel then consumes the precomputed degradations
/// serially in the original (loss, interpolation, question, page) order, so
/// its RNG stream — and therefore every rating — is identical to the serial
/// implementation for any worker count.
pub fn run_experiment(cfg: &Config) -> Vec<Cell> {
    let corpus = Corpus::standard();
    let pages = top_pages(&corpus, cfg.n_pages);
    let mut panel = Panel::new(cfg.raters, cfg.seed);

    // Measurement jobs, one per (loss, interpolated, page).
    let n_pages = pages.len();
    let jobs: Vec<(f64, bool, usize)> = cfg
        .loss_rates
        .iter()
        .flat_map(|&loss| {
            [false, true]
                .into_iter()
                .flat_map(move |interp| (0..n_pages).map(move |k| (loss, interp, k)))
        })
        .collect();
    let degradations = crate::pool::run_ordered(
        jobs,
        crate::pool::default_workers(),
        |(loss, interpolated, k)| {
            let rendered = corpus.render(pages[k], 0, cfg.scale);
            let w = rendered.raster.width();
            let h = rendered.raster.height();
            let mask = LossMask::random(
                w,
                h,
                loss,
                cfg.seed ^ ((loss * 1e4) as u64) << 16 ^ k as u64,
            );
            let distorted = if interpolated {
                recover(&rendered.raster, &mask)
            } else {
                blackout(&rendered.raster, &mask)
            };
            measure(&rendered.raster, &distorted, &rendered.text_mask)
        },
    );

    let mut cells: Vec<Cell> = Vec::new();
    for (li, &loss) in cfg.loss_rates.iter().enumerate() {
        for (ii, interpolated) in [false, true].into_iter().enumerate() {
            for question in [Question::Content, Question::Text] {
                let mut medians = Vec::with_capacity(pages.len());
                for k in 0..pages.len() {
                    let d = &degradations[(li * 2 + ii) * pages.len() + k];
                    let ratings = panel.rate(question, d, cfg.ratings_per_shot);
                    medians.push(crate::stats::median(&ratings));
                }
                cells.push(Cell {
                    loss,
                    interpolated,
                    question,
                    summary: BoxStats::of(&medians),
                    medians,
                });
            }
        }
    }
    cells
}

/// Looks up a cell.
pub fn cell(cells: &[Cell], loss: f64, interpolated: bool, question: Question) -> &Cell {
    cells
        .iter()
        .find(|c| {
            (c.loss - loss).abs() < 1e-9 && c.interpolated == interpolated && c.question == question
        })
        .expect("cell exists")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reduced-size shape check; the bench runs the paper-size study.
    #[test]
    fn interpolation_helps_and_loss_hurts() {
        let cfg = Config {
            n_pages: 6,
            scale: 0.1,
            loss_rates: vec![0.10, 0.50],
            raters: 31,
            ratings_per_shot: 7,
            seed: 42,
        };
        let cells = run_experiment(&cfg);
        for q in [Question::Content, Question::Text] {
            for &loss in &cfg.loss_rates {
                let with = cell(&cells, loss, true, q).summary.median;
                let without = cell(&cells, loss, false, q).summary.median;
                assert!(
                    with > without,
                    "{q:?}@{loss}: interpolation {with} must beat blackout {without}"
                );
            }
            let light = cell(&cells, 0.10, false, q).summary.median;
            let heavy = cell(&cells, 0.50, false, q).summary.median;
            assert!(light > heavy, "{q:?}: more loss must rate lower");
        }
    }
}
