//! SMS message segmentation with UDH concatenation.
//!
//! A single SMS carries 160 GSM-7 characters (140 octets). Longer messages
//! are split into segments of 153 characters each, chained by a 6-octet
//! User Data Header (concatenation reference, total count, index).

use crate::gsm7;

/// Max septets in an unsegmented message.
pub const SINGLE_LIMIT: usize = 160;
/// Max septets per segment when a 6-octet UDH is present (⌊(140−6)·8/7⌋ = 153).
pub const SEGMENT_LIMIT: usize = 153;

/// One SMS segment on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Concatenation reference (same for all parts of one message).
    pub reference: u8,
    /// Total parts.
    pub total: u8,
    /// 1-based part index.
    pub index: u8,
    /// Septet payload of this part.
    pub septets: Vec<u8>,
}

/// Errors in message construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmsError {
    /// Message contains characters outside GSM-7.
    NotGsm7,
    /// Message would need more than 255 segments.
    TooLong,
}

impl std::fmt::Display for SmsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SmsError::NotGsm7 => write!(f, "sms: not representable in GSM-7"),
            SmsError::TooLong => write!(f, "sms: more than 255 segments"),
        }
    }
}

impl std::error::Error for SmsError {}

/// Splits `text` into segments (one element without UDH when it fits).
pub fn segment(text: &str, reference: u8) -> Result<Vec<Segment>, SmsError> {
    let septets = gsm7::encode(text).ok_or(SmsError::NotGsm7)?;
    if septets.len() <= SINGLE_LIMIT {
        return Ok(vec![Segment {
            reference,
            total: 1,
            index: 1,
            septets,
        }]);
    }
    // Chunk on septet boundaries, careful not to split an ESC pair.
    let mut chunks: Vec<Vec<u8>> = Vec::new();
    let mut cur = Vec::with_capacity(SEGMENT_LIMIT);
    let mut i = 0usize;
    while i < septets.len() {
        let step = if septets[i] == 0x1B && i + 1 < septets.len() {
            2
        } else {
            1
        };
        if cur.len() + step > SEGMENT_LIMIT {
            chunks.push(std::mem::take(&mut cur));
        }
        cur.extend_from_slice(&septets[i..i + step]);
        i += step;
    }
    if !cur.is_empty() {
        chunks.push(cur);
    }
    let total = u8::try_from(chunks.len()).map_err(|_| SmsError::TooLong)?;
    Ok((1..=total)
        .zip(chunks)
        .map(|(index, septets)| Segment {
            reference,
            total,
            index,
            septets,
        })
        .collect())
}

/// Reassembles segments (any order, duplicates tolerated) into the text.
///
/// Returns `None` until every part of the reference is present.
pub fn reassemble(segments: &[Segment]) -> Option<String> {
    let total = segments.first()?.total as usize;
    let reference = segments.first()?.reference;
    let mut parts: Vec<Option<&Segment>> = vec![None; total];
    for s in segments {
        if s.reference != reference || s.index == 0 || s.index as usize > total {
            continue;
        }
        parts[s.index as usize - 1] = Some(s);
    }
    let mut septets = Vec::new();
    for p in parts {
        septets.extend_from_slice(&p?.septets);
    }
    Some(gsm7::decode(&septets))
}

/// Number of segments a text requires (what a carrier would bill).
pub fn segment_count(text: &str) -> Result<usize, SmsError> {
    Ok(segment(text, 0)?.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_message_is_single() {
        let segs = segment("GET cnn.com", 9).expect("segment");
        assert_eq!(segs.len(), 1);
        assert_eq!(reassemble(&segs), Some("GET cnn.com".into()));
    }

    #[test]
    fn exactly_160_is_single() {
        let text: String = "a".repeat(160);
        assert_eq!(segment_count(&text).expect("count"), 1);
    }

    #[test]
    fn one_sixty_one_splits_in_two() {
        let text: String = "a".repeat(161);
        let segs = segment(&text, 1).expect("segment");
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].septets.len(), SEGMENT_LIMIT);
        assert_eq!(reassemble(&segs), Some(text));
    }

    #[test]
    fn out_of_order_reassembly() {
        let text: String = (0..400).map(|i| ((i % 26) as u8 + b'a') as char).collect();
        let mut segs = segment(&text, 3).expect("segment");
        segs.reverse();
        assert_eq!(reassemble(&segs), Some(text));
    }

    #[test]
    fn missing_part_returns_none() {
        let text: String = "z".repeat(400);
        let mut segs = segment(&text, 3).expect("segment");
        segs.remove(1);
        assert_eq!(reassemble(&segs), None);
    }

    #[test]
    fn esc_pairs_never_split() {
        // 152 'a' + '{' (2 septets) would straddle the 153 boundary.
        let mut text: String = "a".repeat(152 + 100);
        text.insert(152, '{');
        let segs = segment(&text, 5).expect("segment");
        for s in &segs {
            // No segment may end with a bare ESC.
            assert_ne!(s.septets.last(), Some(&0x1B), "split ESC pair");
        }
        assert_eq!(reassemble(&segs), Some(text));
    }

    #[test]
    fn non_gsm_rejected() {
        assert_eq!(segment("привет", 0), Err(SmsError::NotGsm7));
    }
}
