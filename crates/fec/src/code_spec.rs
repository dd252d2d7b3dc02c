//! The chained FEC pipeline: scrambler → outer RS → interleaver → inner
//! convolutional code, mirroring Quiet's `checksum_scheme = crc32`,
//! `inner_fec_scheme = v29`, `outer_fec_scheme = rs8` configuration (the CRC
//! itself lives in the link-layer frame, one level up).

use crate::bits::{bits_to_bytes, bytes_to_bits, soft_to_bits};
use crate::conv;
use crate::interleave::Interleaver;
use crate::rs::{RsCodec, RsError};
use crate::scramble::Scrambler;
use crate::viterbi;

/// Declarative description of a coding chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeSpec {
    /// Outer Reed-Solomon parity symbols per 255-byte block (0 disables;
    /// the paper's "rs8" uses 32).
    pub rs_nroots: usize,
    /// Enable the inner K=9 r=1/2 convolutional code ("v29").
    pub conv: bool,
    /// Byte interleaver depth (rows); 0 disables interleaving.
    pub interleave_depth: usize,
    /// Scrambler seed; 0 disables whitening.
    pub scramble_seed: u16,
}

impl CodeSpec {
    /// The chain the paper configures: crc32 (at link layer) + v29 + rs8.
    pub fn sonic_default() -> Self {
        CodeSpec {
            rs_nroots: 32,
            conv: true,
            interleave_depth: 16,
            scramble_seed: Scrambler::default_seed(),
        }
    }

    /// No coding at all (ablation baseline).
    pub fn none() -> Self {
        CodeSpec {
            rs_nroots: 0,
            conv: false,
            interleave_depth: 0,
            scramble_seed: 0,
        }
    }

    /// Inner convolutional code only.
    pub fn conv_only() -> Self {
        CodeSpec {
            rs_nroots: 0,
            conv: true,
            interleave_depth: 0,
            scramble_seed: Scrambler::default_seed(),
        }
    }

    /// Outer Reed-Solomon only.
    pub fn rs_only() -> Self {
        CodeSpec {
            rs_nroots: 32,
            conv: false,
            interleave_depth: 16,
            scramble_seed: Scrambler::default_seed(),
        }
    }

    /// Effective code rate (info bits / coded bits) for a given payload size.
    pub fn rate(&self, payload_len: usize) -> f64 {
        let coded = self.coded_bits_len(payload_len);
        if coded == 0 {
            return 1.0;
        }
        (payload_len * 8) as f64 / coded as f64
    }

    /// Bytes after the outer RS stage for `payload_len` input bytes.
    fn rs_coded_len(&self, payload_len: usize) -> usize {
        if self.rs_nroots == 0 || payload_len == 0 {
            return payload_len;
        }
        let data_per_block = 255 - self.rs_nroots;
        let blocks = payload_len.div_ceil(data_per_block);
        payload_len + blocks * self.rs_nroots
    }

    /// Total coded bits emitted for `payload_len` payload bytes.
    ///
    /// An empty payload encodes to zero bits.
    pub fn coded_bits_len(&self, payload_len: usize) -> usize {
        if payload_len == 0 {
            return 0;
        }
        let bytes = self.rs_coded_len(payload_len);
        if self.conv {
            conv::coded_len(bytes * 8)
        } else {
            bytes * 8
        }
    }
}

/// Errors surfaced by [`FecPipeline::decode_soft`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FecError {
    /// The outer RS decoder could not repair a block.
    Unrecoverable,
    /// Input length does not match the spec for the claimed payload length.
    LengthMismatch,
}

impl std::fmt::Display for FecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FecError::Unrecoverable => write!(f, "fec: unrecoverable block"),
            FecError::LengthMismatch => write!(f, "fec: coded length mismatch"),
        }
    }
}

impl std::error::Error for FecError {}

/// A ready-to-use encoder/decoder for one [`CodeSpec`].
#[derive(Debug, Clone)]
pub struct FecPipeline {
    spec: CodeSpec,
    rs: Option<RsCodec>,
}

impl FecPipeline {
    /// Builds the pipeline for `spec`.
    pub fn new(spec: CodeSpec) -> Self {
        let rs = if spec.rs_nroots > 0 {
            Some(RsCodec::new(spec.rs_nroots))
        } else {
            None
        };
        FecPipeline { spec, rs }
    }

    /// The spec this pipeline implements.
    pub fn spec(&self) -> &CodeSpec {
        &self.spec
    }

    fn interleaver(&self, len: usize) -> Option<Interleaver> {
        if self.spec.interleave_depth >= 2 && len >= self.spec.interleave_depth * 2 {
            let cols = (len / self.spec.interleave_depth).max(2);
            Some(Interleaver::new(self.spec.interleave_depth, cols))
        } else {
            None
        }
    }

    /// Encodes `payload`, returning coded bits (0/1 values) ready for the
    /// modem's bit mapper.
    ///
    /// Each RS block is copied, scrambled and given its parity in one
    /// buffer (the keystream runs on across blocks, as over the whole
    /// payload); the inner code reads the interleaved bytes directly.
    pub fn encode(&self, payload: &[u8]) -> Vec<u8> {
        if payload.is_empty() {
            return Vec::new();
        }
        let mut data = Vec::with_capacity(self.spec.rs_coded_len(payload.len()));
        let mut scrambler = (self.spec.scramble_seed != 0).then(|| Scrambler::new(self.spec.scramble_seed));
        let block_len = self.rs.as_ref().map_or(payload.len(), RsCodec::max_data_len);
        for block in payload.chunks(block_len) {
            let start = data.len();
            data.extend_from_slice(block);
            if let Some(scrambler) = &mut scrambler {
                scrambler.apply(&mut data[start..]);
            }
            if let Some(rs) = &self.rs {
                let end = data.len();
                data.resize(end + rs.nroots(), 0);
                let (message, parity) = data.split_at_mut(end);
                rs.encode_into(&message[start..], parity);
            }
        }
        if let Some(il) = self.interleaver(data.len()) {
            data = il.interleave(&data);
        }
        if self.spec.conv {
            conv::encode_bytes(&data)
        } else {
            bytes_to_bits(&data)
        }
    }

    /// Decodes soft bits (positive ⇔ 1) back into `payload_len` bytes.
    pub fn decode_soft(&self, soft: &[f32], payload_len: usize) -> Result<Vec<u8>, FecError> {
        if soft.len() != self.spec.coded_bits_len(payload_len) {
            return Err(FecError::LengthMismatch);
        }
        if payload_len == 0 {
            return Ok(Vec::new());
        }
        let rs_len = self.spec.rs_coded_len(payload_len);
        let bits = if self.spec.conv {
            viterbi::decode_soft(soft, rs_len * 8)
        } else {
            soft_to_bits(soft)
        };
        let mut data = bits_to_bytes(&bits);
        data.truncate(rs_len);
        if let Some(il) = self.interleaver(data.len()) {
            data = il.deinterleave(&data);
        }
        if let Some(rs) = &self.rs {
            let chunk = rs.max_data_len() + rs.nroots();
            let mut out = Vec::with_capacity(payload_len);
            let mut consumed = 0usize;
            let mut remaining_payload = payload_len;
            while consumed < data.len() {
                let take = chunk.min(data.len() - consumed);
                let mut block = data[consumed..consumed + take].to_vec();
                match rs.decode(&mut block, &[]) {
                    Ok(_) => {}
                    Err(RsError::TooManyErrors) => return Err(FecError::Unrecoverable),
                    Err(RsError::BadInput) => return Err(FecError::LengthMismatch),
                }
                let data_len = take - rs.nroots();
                out.extend_from_slice(&block[..data_len.min(remaining_payload)]);
                remaining_payload = remaining_payload.saturating_sub(data_len);
                consumed += take;
            }
            data = out;
        }
        data.truncate(payload_len);
        if self.spec.scramble_seed != 0 {
            Scrambler::new(self.spec.scramble_seed).apply(&mut data);
        }
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::bits_to_soft;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i as u8).wrapping_mul(97).wrapping_add(13)).collect()
    }

    fn roundtrip(spec: CodeSpec, n: usize) {
        let p = FecPipeline::new(spec);
        let data = payload(n);
        let coded = p.encode(&data);
        assert_eq!(coded.len(), spec.coded_bits_len(n), "length formula");
        let soft = bits_to_soft(&coded);
        assert_eq!(p.decode_soft(&soft, n).expect("clean decode"), data);
    }

    #[test]
    fn clean_roundtrip_all_specs() {
        for spec in [
            CodeSpec::sonic_default(),
            CodeSpec::none(),
            CodeSpec::conv_only(),
            CodeSpec::rs_only(),
        ] {
            for n in [1usize, 50, 100, 223, 224, 500, 1000] {
                roundtrip(spec, n);
            }
        }
    }

    #[test]
    fn default_chain_survives_burst_and_scatter() {
        let spec = CodeSpec::sonic_default();
        let p = FecPipeline::new(spec);
        let data = payload(400);
        let coded = p.encode(&data);
        let mut soft = bits_to_soft(&coded);
        // 1% scattered hard flips...
        for i in (0..soft.len()).step_by(100) {
            soft[i] = -soft[i];
        }
        // ...plus a 40-bit erased burst.
        let mid = soft.len() / 2;
        for s in soft.iter_mut().skip(mid).take(40) {
            *s = 0.0;
        }
        assert_eq!(p.decode_soft(&soft, 400).expect("repairable"), data);
    }

    #[test]
    fn uncoded_chain_breaks_where_coded_survives() {
        let data = payload(300);
        let none = FecPipeline::new(CodeSpec::none());
        let full = FecPipeline::new(CodeSpec::sonic_default());
        let corrupt = |bits: &[u8]| -> Vec<f32> {
            let mut soft = bits_to_soft(bits);
            for i in (0..soft.len()).step_by(83) {
                soft[i] = -soft[i];
            }
            soft
        };
        let got_none = none
            .decode_soft(&corrupt(&none.encode(&data)), 300)
            .expect("uncoded decode always returns bytes");
        assert_ne!(got_none, data, "uncoded must be corrupted");
        let got_full = full
            .decode_soft(&corrupt(&full.encode(&data)), 300)
            .expect("coded decode");
        assert_eq!(got_full, data, "coded must repair");
    }

    #[test]
    fn rate_reflects_overhead() {
        let none = CodeSpec::none();
        assert!((none.rate(100) - 1.0).abs() < 1e-9);
        let full = CodeSpec::sonic_default();
        let r = full.rate(1000);
        // ~0.5 (conv) × ~0.875 (RS) ≈ 0.437, minus tail overhead.
        assert!(r > 0.40 && r < 0.45, "rate {r}");
    }

    #[test]
    fn unrecoverable_reports_error() {
        let p = FecPipeline::new(CodeSpec::rs_only());
        let data = payload(100);
        let coded = p.encode(&data);
        let mut soft = bits_to_soft(&coded);
        // Destroy half of everything — far beyond RS(255,223).
        for (i, s) in soft.iter_mut().enumerate() {
            if i % 2 == 0 {
                *s = -*s;
            }
        }
        assert_eq!(p.decode_soft(&soft, 100), Err(FecError::Unrecoverable));
    }

    #[test]
    fn length_mismatch_detected() {
        let p = FecPipeline::new(CodeSpec::sonic_default());
        assert_eq!(p.decode_soft(&[0.0; 64], 100), Err(FecError::LengthMismatch));
    }

    #[test]
    fn empty_payload_roundtrip() {
        roundtrip(CodeSpec::sonic_default(), 0);
    }
}
