//! Property tests for the uplink SMS grammars the server parses: `GET`
//! (`gateway`), `ASK` and `NACK` (`queries`). What a client formats parses
//! back to the same fields, and the three parsers — which the server runs
//! on every message from the air — stay total on truncated, bit-flipped and
//! made-up text, and accept only what their grammar promises.

use proptest::prelude::*;
use sonic_sms::gateway::{format_request, parse_request};
use sonic_sms::geo::GeoPoint;
use sonic_sms::queries::{
    format_nack, format_query, parse_nack, parse_query, Engine, Nack, MAX_NACK_COLUMNS,
};

/// A location the grammars carry exactly: both coordinates on the
/// ten-thousandth-degree grid that `{:.4}` prints.
fn location(lat_e4: i32, lon_e4: i32) -> GeoPoint {
    GeoPoint::new(f64::from(lat_e4) / 1e4, f64::from(lon_e4) / 1e4)
}

fn in_range(p: &GeoPoint) -> bool {
    (-90.0..=90.0).contains(&p.lat) && (-180.0..=180.0).contains(&p.lon)
}

/// Runs every uplink parser on `msg`: none may panic, and whatever one
/// accepts holds the invariants its grammar promises the server.
fn parse_all(msg: &str) {
    if let Some(req) = parse_request(msg) {
        assert!(in_range(&req.location), "{msg:?}");
        assert!(!req.url.is_empty() && !req.url.contains(' '), "{msg:?}");
    }
    if let Some(q) = parse_query(msg) {
        assert!(in_range(&q.location), "{msg:?}");
        assert!(!q.text.is_empty() && q.text.trim() == q.text, "{msg:?}");
    }
    if let Some(nack) = parse_nack(msg) {
        assert!(in_range(&nack.location), "{msg:?}");
        assert!(nack.meta || !nack.columns.is_empty(), "{msg:?}");
        assert!(nack.columns.len() <= MAX_NACK_COLUMNS, "{msg:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// `format_request`, `format_query` and `format_nack` give back every
    /// field through their parsers; a NACK keeps its first
    /// [`MAX_NACK_COLUMNS`] columns, and one with nothing to repair is
    /// refused.
    #[test]
    fn formatted_uplinks_parse_back_to_their_fields(
        url in "[a-zA-Z0-9./:?=&_%~-]{1,80}",
        head in "[a-zA-Z0-9?]{1,8}",
        middle in "[a-zA-Z0-9 ,.?!']{0,60}",
        tail in "[a-zA-Z0-9?.]{1,8}",
        at_inside in any::<bool>(),
        chat in any::<bool>(),
        lat_e4 in -900_000i32..=900_000,
        lon_e4 in -1_800_000i32..=1_800_000,
        page_id in any::<u32>(),
        meta in any::<bool>(),
        columns in proptest::collection::vec((any::<u16>(), any::<u16>()), 0..32),
    ) {
        let location = location(lat_e4, lon_e4);

        let req = parse_request(&format_request(&url, &location)).expect("GET parses");
        prop_assert_eq!((req.url.as_str(), req.location), (url.as_str(), location));

        let engine = if chat { Engine::Chat } else { Engine::Search };
        // Query text as a user types it: no leading or trailing space (the
        // parser trims), and sometimes a location-shaped " AT " inside.
        let at = if at_inside { " AT 12.5,3 " } else { "" };
        let text = format!("{head}{at}{middle}{tail}");
        let q = parse_query(&format_query(engine, &text, &location)).expect("ASK parses");
        prop_assert_eq!((q.engine, q.text.as_str(), q.location), (engine, text.as_str(), location));

        let nack = Nack { page_id, meta, columns, location };
        let sent = Nack {
            columns: nack.columns.iter().copied().take(MAX_NACK_COLUMNS).collect(),
            ..nack.clone()
        };
        let parsed = parse_nack(&format_nack(&nack));
        if meta || !nack.columns.is_empty() {
            prop_assert_eq!(parsed, Some(sent));
        } else {
            prop_assert_eq!(parsed, None);
        }
    }

    /// A formatted uplink truncated, with one bit flipped, or replaced by
    /// character soup behind a grammar's keyword: no parser panics, and
    /// what parses is well-formed.
    #[test]
    fn uplink_parsers_are_total_on_hostile_text(
        url in "[a-z0-9./:-]{1,40}",
        text in "[a-z0-9 ,.?]{1,40}",
        lat_e4 in -900_000i32..=900_000,
        lon_e4 in -1_800_000i32..=1_800_000,
        page_id in any::<u32>(),
        columns in proptest::collection::vec((any::<u16>(), any::<u16>()), 0..30),
        which in 0u8..3,
        kind in 0u8..3,
        at in any::<u64>(),
        bit in 0u8..8,
        keyword in 0usize..6,
        soup in "[A-Z0-9 .,:/a-zé+-]{0,80}",
        location_soup in "[0-9 .,eE+-]{0,16}",
    ) {
        let location = location(lat_e4, lon_e4);
        let msg = match which {
            0 => format_request(&url, &location),
            1 => format_query(Engine::Search, &text, &location),
            _ => format_nack(&Nack { page_id, meta: false, columns, location }),
        };
        let hostile = match kind {
            0 => msg[..msg.floor_char_boundary((at % (msg.len() as u64 + 1)) as usize)].to_string(),
            1 => {
                let mut bytes = msg.into_bytes();
                let byte = (at % bytes.len() as u64) as usize;
                bytes[byte] ^= 1 << bit;
                String::from_utf8_lossy(&bytes).into_owned()
            }
            _ => {
                let prefix = ["GET ", "ASK SEARCH ", "ASK CHAT ", "NACK ", "NACK 1F ", ""][keyword];
                format!("{prefix}{soup} AT {location_soup}")
            }
        };
        parse_all(&hostile);
    }
}
