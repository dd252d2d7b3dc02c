//! Property-based tests of the stack's core invariants (proptest).

use proptest::prelude::*;
use sonic::core::frame::{Frame, FRAME_PAYLOAD};
use sonic::fec::bits::bits_to_soft;
use sonic::fec::rs::RsCodec;
use sonic::fec::{CodeSpec, FecPipeline};
use sonic::image::clickmap::{ClickMap, ClickRegion};
use sonic::image::interpolate::{recover, LossMask};
use sonic::image::raster::{Raster, Rgb};
use sonic::image::strip;
use sonic::sms::pdu;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// CRC-32 never collides with a single bit flip anywhere in the frame.
    #[test]
    fn frame_roundtrip_any_payload(
        page_id in any::<u32>(),
        column in 0u16..2048,
        seq in 0u16..0x7FFF,
        last in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..=FRAME_PAYLOAD),
    ) {
        let f = Frame::Strip { page_id, column, seq, last, payload };
        let wire = f.encode();
        prop_assert_eq!(Frame::decode(&wire), Ok(f));
    }

    /// The FEC pipeline is the identity over a clean channel for any payload.
    #[test]
    fn fec_clean_roundtrip(payload in proptest::collection::vec(any::<u8>(), 1..600)) {
        let p = FecPipeline::new(CodeSpec::sonic_default());
        let coded = p.encode(&payload);
        let soft = bits_to_soft(&coded);
        prop_assert_eq!(p.decode_soft(&soft, payload.len()).expect("clean"), payload);
    }

    /// Reed-Solomon corrects any pattern of ≤ t symbol errors.
    #[test]
    fn rs_corrects_any_t_errors(
        data in proptest::collection::vec(any::<u8>(), 32..223),
        positions in proptest::collection::hash_set(0usize..255, 1..=16),
        xor in 1u8..=255,
    ) {
        let rs = RsCodec::new(32);
        let parity = rs.encode(&data);
        let mut cw = data.clone();
        cw.extend_from_slice(&parity);
        let n = cw.len();
        let mut real_errors = 0usize;
        for &p in positions.iter() {
            if p < n {
                cw[p] ^= xor;
                real_errors += 1;
            }
        }
        prop_assume!(real_errors > 0);
        let fixed = rs.decode(&mut cw, &[]).expect("<= t errors must correct");
        prop_assert_eq!(fixed, real_errors);
        prop_assert_eq!(&cw[..data.len()], &data[..]);
    }

    /// GSM-7 segmentation + reassembly is the identity for ASCII text.
    #[test]
    fn sms_segment_reassemble(text in "[a-zA-Z0-9 .,:/-]{0,400}") {
        let segs = pdu::segment(&text, 7).expect("ascii subset is GSM-7");
        prop_assert_eq!(pdu::reassemble(&segs), Some(text));
    }

    /// Click maps survive serialization for arbitrary region sets.
    #[test]
    fn clickmap_roundtrip(
        regions in proptest::collection::vec(
            (any::<u16>(), any::<u16>(), 1u16..500, 1u16..500, "[a-z./:]{1,40}"),
            0..12,
        )
    ) {
        let cm = ClickMap {
            regions: regions
                .into_iter()
                .map(|(x, y, w, h, target)| ClickRegion { x, y, w, h, target })
                .collect(),
        };
        prop_assert_eq!(ClickMap::decode(&cm.encode()), Some(cm));
    }

    /// Strip coding: any per-column byte-prefix truncation loses only a
    /// pixel suffix of that column, never anything else.
    #[test]
    fn strip_prefix_property(
        w in 2usize..10,
        h in 8usize..40,
        cut_col in 0usize..10,
        keep_frac in 0.0f64..1.0,
    ) {
        let cut_col = cut_col % w;
        let mut img = Raster::new(w, h);
        for y in 0..h {
            for x in 0..w {
                img.set(x, y, Rgb::new((x * 40) as u8, (y * 11) as u8, ((x + y) * 7) as u8));
            }
        }
        let coded = strip::encode(&img);
        let clean = strip::decode(&coded);
        let mut received: Vec<usize> = coded.strips.iter().map(Vec::len).collect();
        received[cut_col] = (received[cut_col] as f64 * keep_frac) as usize;
        let (out, mask) = strip::decode_partial(&coded, &received);
        for x in 0..w {
            let lost: Vec<usize> = (0..h).filter(|&y| mask.is_lost(x, y)).collect();
            if x != cut_col {
                prop_assert!(lost.is_empty(), "column {} must be intact", x);
                for y in 0..h {
                    prop_assert_eq!(out.get(x, y), clean.get(x, y));
                }
            } else if let Some(&first) = lost.first() {
                // Suffix property.
                prop_assert_eq!(lost.clone(), (first..h).collect::<Vec<_>>());
            }
        }
    }

    /// Interpolation never leaves a lost pixel untouched when at least one
    /// pixel was received, and never modifies received pixels.
    #[test]
    fn interpolation_covers_and_preserves(
        w in 2usize..24,
        h in 2usize..24,
        rate in 0.05f64..0.9,
        seed in any::<u64>(),
    ) {
        let mut img = Raster::new(w, h);
        for y in 0..h {
            for x in 0..w {
                img.set(x, y, Rgb::new((x * 9) as u8, (y * 13) as u8, 200));
            }
        }
        let mask = LossMask::random(w, h, rate, seed);
        prop_assume!(mask.loss_rate() < 1.0);
        let out = recover(&img, &mask);
        for y in 0..h {
            for x in 0..w {
                if !mask.is_lost(x, y) {
                    prop_assert_eq!(out.get(x, y), img.get(x, y), "received pixel modified");
                }
            }
        }
    }

    /// The scheduler conserves bytes: enqueued == transmitted + backlog.
    #[test]
    fn scheduler_conserves_bytes(
        heights in proptest::collection::vec(8usize..60, 1..5),
        dt in 0.01f64..5.0,
    ) {
        use sonic::core::server::scheduler::BroadcastScheduler;
        use sonic::core::page::SimplifiedPage;
        use std::sync::Arc;
        let mut s = BroadcastScheduler::new(16_000.0);
        let mut total = 0usize;
        for (i, h) in heights.iter().enumerate() {
            let img = Raster::filled(6, *h, Rgb::new(i as u8, 0, 0));
            let p = SimplifiedPage::from_raster(&format!("u{i}"), &img, ClickMap::default(), 0, 1);
            let frames = Arc::new(sonic::core::chunker::page_to_frames(&p));
            s.enqueue_prechunked(Arc::new(p), frames, 0.0);
            total = s.backlog_bytes().max(total);
        }
        let initial = s.backlog_bytes();
        let mut emitted = 0usize;
        for _ in 0..200 {
            emitted += s.advance(dt).len() * sonic::core::FRAME_SIZE;
        }
        prop_assert_eq!(emitted + s.backlog_bytes(), initial);
    }
}
