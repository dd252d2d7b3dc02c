//! Reed-Solomon coding over GF(256) — libfec's "rs8".
//!
//! The outer code of the SONIC chain. We implement the systematic
//! RS(255, 255-2t) family with `fcr = 1, prim = 1` (generator roots
//! α¹ … α^2t), decoded with the Sugiyama (extended Euclidean) algorithm with
//! full errors-and-erasures support, Chien search and Forney's formula.
//! SONIC uses the CCSDS geometry RS(255,223), i.e. 32 parity symbols
//! correcting up to 16 symbol errors per block; shortened blocks (fewer than
//! 223 data bytes) are supported by virtual zero padding.

use crate::galois::Gf256;

/// First consecutive root exponent of the generator polynomial.
const FCR: usize = 1;

/// Errors returned by the RS decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RsError {
    /// More errors than the code can correct; the block is unrecoverable.
    TooManyErrors,
    /// Caller passed inconsistent lengths or erasure positions.
    BadInput,
}

impl std::fmt::Display for RsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsError::TooManyErrors => write!(f, "reed-solomon: too many errors"),
            RsError::BadInput => write!(f, "reed-solomon: bad input"),
        }
    }
}

impl std::error::Error for RsError {}

/// A Reed-Solomon codec with a fixed number of parity symbols.
#[derive(Debug, Clone)]
pub struct RsCodec {
    nroots: usize,
    /// Row `f` (the `nroots.div_ceil(8)` words from `f` rows in) is
    /// `f · generator[1..]`, packed as the encoder's parity register packs
    /// it, for every possible feedback byte `f`: the encoder's step is XORs
    /// of whole words instead of per-symbol log/exp multiplies.
    feedback_words: Vec<u64>,
    /// `root_rows[j*256..][s] = s · α^(FCR+j)`: one step of syndrome `j`'s
    /// Horner chain as a single lookup.
    root_rows: Vec<u8>,
}

impl RsCodec {
    /// Creates a codec with `nroots` parity symbols (corrects `nroots/2`
    /// symbol errors). The paper's configuration is `RsCodec::new(32)`.
    ///
    /// # Panics
    /// Panics unless `1 <= nroots <= 254`.
    pub fn new(nroots: usize) -> Self {
        assert!((1..=254).contains(&nroots), "nroots must be in 1..=254");
        let gf = Gf256::get();
        // g(x) = Π_{j=0}^{nroots-1} (x + α^{fcr+j})
        let mut generator = vec![1u8];
        for j in 0..nroots {
            generator = gf.poly_mul(&generator, &[1, gf.alpha_pow(FCR + j)]);
        }
        let words = nroots.div_ceil(8);
        let mut feedback_words = vec![0u64; 256 * words];
        for (f, row) in feedback_words.chunks_exact_mut(words).enumerate() {
            for (i, &g) in generator[1..].iter().enumerate() {
                row[i / 8] |= u64::from(gf.mul(f as u8, g)) << (56 - 8 * (i % 8));
            }
        }
        let mut root_rows = vec![0u8; nroots * 256];
        for (j, row) in root_rows.chunks_mut(256).enumerate() {
            let root = gf.alpha_pow(FCR + j);
            for (s, r) in row.iter_mut().enumerate() {
                *r = gf.mul(s as u8, root);
            }
        }
        RsCodec {
            nroots,
            feedback_words,
            root_rows,
        }
    }

    /// Syndromes `S_j = C(α^{fcr+j})` into `synd` (lowest-first), all
    /// `nroots` Horner chains advancing together over one walk of the
    /// codeword: the chains are independent, so the lookups of one symbol
    /// overlap instead of queueing behind each other. Returns whether every
    /// syndrome is zero, i.e. `codeword` is a codeword.
    fn syndromes(&self, codeword: &[u8], synd: &mut [u8]) -> bool {
        synd.fill(0);
        for &c in codeword {
            for (s, row) in synd.iter_mut().zip(self.root_rows.chunks_exact(256)) {
                *s = row[*s as usize] ^ c;
            }
        }
        synd.iter().all(|&s| s == 0)
    }

    /// Number of parity symbols appended by [`encode`](Self::encode).
    pub fn nroots(&self) -> usize {
        self.nroots
    }

    /// Maximum data bytes per block (223 for the standard geometry).
    pub fn max_data_len(&self) -> usize {
        255 - self.nroots
    }

    /// Encodes `data`, returning the parity symbols to append.
    ///
    /// # Panics
    /// Panics if `data.len() > self.max_data_len()`.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        let mut parity = vec![0u8; self.nroots];
        self.encode_into(data, &mut parity);
        parity
    }

    /// [`encode`](Self::encode) into `parity`, `nroots` bytes.
    ///
    /// The remainder of `data·x^nroots` divided by `g(x)`, in a register of
    /// whole words: the `nroots` bytes big-endian within and across words,
    /// zero past the last. A data byte shifts the register one byte and
    /// XORs its feedback row in, a word at a time.
    ///
    /// # Panics
    /// Panics if `data.len() > self.max_data_len()` or `parity.len()` is
    /// not `nroots`.
    pub(crate) fn encode_into(&self, data: &[u8], parity: &mut [u8]) {
        assert!(
            data.len() <= self.max_data_len(),
            "block too long: {} > {}",
            data.len(),
            self.max_data_len()
        );
        assert_eq!(parity.len(), self.nroots, "parity length");
        let words = self.nroots.div_ceil(8);
        // 254 parity bytes at most: 32 words.
        let mut register = [0u64; 32];
        let register = &mut register[..words];
        for &d in data {
            let feedback = usize::from(d ^ register[0].to_be_bytes()[0]);
            for i in 1..words {
                register[i - 1] = (register[i - 1] << 8) | (register[i] >> 56);
            }
            register[words - 1] <<= 8;
            let row = &self.feedback_words[feedback * words..][..words];
            for (r, &f) in register.iter_mut().zip(row) {
                *r ^= f;
            }
        }
        for (p, byte) in parity.iter_mut().zip(register.iter().flat_map(|r| r.to_be_bytes())) {
            *p = byte;
        }
    }

    /// Decodes a codeword (`data ‖ parity`) in place, correcting up to
    /// `nroots/2` errors (more when erasure positions are supplied).
    ///
    /// `erasures` lists indices into `codeword` known to be unreliable.
    /// Returns the number of corrected symbols.
    pub fn decode(&self, codeword: &mut [u8], erasures: &[usize]) -> Result<usize, RsError> {
        let n = codeword.len();
        if n <= self.nroots || n > 255 {
            return Err(RsError::BadInput);
        }
        if erasures.iter().any(|&e| e >= n) || erasures.len() > self.nroots {
            return Err(RsError::BadInput);
        }
        let gf = Gf256::get();
        let t2 = self.nroots;

        let mut synd = vec![0u8; t2];
        if self.syndromes(codeword, &mut synd) {
            return Ok(0);
        }

        // Erasure locator Γ(x) = Π (1 + X_k·x), lowest-first.
        // Position i (transmitted order) ↔ power p = n-1-i, X_k = α^p.
        let mut gamma = vec![1u8];
        for &pos in erasures {
            let x_k = gf.alpha_pow(n - 1 - pos);
            gamma = poly_mul_low(gf, &gamma, &[1, x_k]);
        }

        // Modified syndrome T(x) = S(x)·Γ(x) mod x^t2.
        let mut t_poly = poly_mul_low(gf, &synd, &gamma);
        t_poly.truncate(t2);

        // Sugiyama: Euclid on (x^t2, T) until deg r < (t2 + e) / 2.
        let e_count = erasures.len();
        let target = (t2 + e_count) / 2;
        let mut r_prev = vec![0u8; t2 + 1];
        r_prev[t2] = 1; // x^t2, lowest-first
        let mut r_cur = t_poly;
        trim_low(&mut r_cur);
        let mut u_prev: Vec<u8> = vec![0];
        let mut u_cur: Vec<u8> = vec![1];

        while poly_deg(&r_cur) >= target as isize && !is_zero(&r_cur) {
            let (q, rem) = poly_divmod_low(gf, &r_prev, &r_cur);
            let u_next = poly_add_low(&u_prev, &poly_mul_low(gf, &q, &u_cur));
            r_prev = std::mem::replace(&mut r_cur, rem);
            u_prev = std::mem::replace(&mut u_cur, u_next);
        }

        let sigma = u_cur; // error locator (errors only)
        let omega_unscaled = r_cur;

        // Combined locator Λ = σ·Γ, normalized so Λ(0) = 1.
        let mut lambda = poly_mul_low(gf, &sigma, &gamma);
        trim_low(&mut lambda);
        if lambda.is_empty() || lambda[0] == 0 {
            return Err(RsError::TooManyErrors);
        }
        let norm = gf.inv(lambda[0]);
        for c in &mut lambda {
            *c = gf.mul(*c, norm);
        }
        let mut omega: Vec<u8> = omega_unscaled.iter().map(|&c| gf.mul(c, norm)).collect();
        trim_low(&mut omega);

        let deg_lambda = poly_deg(&lambda);
        if deg_lambda < 0 || deg_lambda as usize > t2 {
            return Err(RsError::TooManyErrors);
        }

        // Chien search over the valid positions.
        let mut positions = Vec::new();
        for i in 0..n {
            let p = n - 1 - i;
            // Root test at x = X_k^{-1} = α^{-p}.
            let x_inv = gf.alpha_pow(255 - (p % 255));
            if eval_low(gf, &lambda, x_inv) == 0 {
                positions.push((i, p));
            }
        }
        if positions.len() != deg_lambda as usize {
            return Err(RsError::TooManyErrors);
        }

        // Forney: e_k = Ω(X_k^{-1}) / Λ'(X_k^{-1})   (fcr = 1 ⇒ no X factor).
        let lambda_deriv = formal_derivative(&lambda);
        for &(i, p) in &positions {
            let x_inv = gf.alpha_pow(255 - (p % 255));
            let num = eval_low(gf, &omega, x_inv);
            let den = eval_low(gf, &lambda_deriv, x_inv);
            if den == 0 {
                return Err(RsError::TooManyErrors);
            }
            codeword[i] ^= gf.div(num, den);
        }

        // Verify: recompute syndromes; a miscorrection leaves them non-zero.
        if !self.syndromes(codeword, &mut synd) {
            return Err(RsError::TooManyErrors);
        }
        Ok(positions.len())
    }
}

// ---- lowest-degree-first polynomial helpers (decoder internals) ----

fn trim_low(p: &mut Vec<u8>) {
    while p.len() > 1 && p.last() == Some(&0) {
        p.pop();
    }
}

fn is_zero(p: &[u8]) -> bool {
    p.iter().all(|&c| c == 0)
}

fn poly_deg(p: &[u8]) -> isize {
    for (i, &c) in p.iter().enumerate().rev() {
        if c != 0 {
            return i as isize;
        }
    }
    -1
}

fn poly_add_low(a: &[u8], b: &[u8]) -> Vec<u8> {
    let n = a.len().max(b.len());
    let mut out = vec![0u8; n];
    for (i, o) in out.iter_mut().enumerate() {
        *o = a.get(i).copied().unwrap_or(0) ^ b.get(i).copied().unwrap_or(0);
    }
    out
}

fn poly_mul_low(gf: &Gf256, a: &[u8], b: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; a.len() + b.len() - 1];
    for (i, &ca) in a.iter().enumerate() {
        if ca == 0 {
            continue;
        }
        for (j, &cb) in b.iter().enumerate() {
            out[i + j] ^= gf.mul(ca, cb);
        }
    }
    out
}

/// Division with remainder, lowest-first representation.
fn poly_divmod_low(gf: &Gf256, num: &[u8], den: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let dd = poly_deg(den);
    assert!(dd >= 0, "division by zero polynomial");
    let mut rem = num.to_vec();
    let dn = poly_deg(&rem);
    if dn < dd {
        return (vec![0], rem);
    }
    let mut quot = vec![0u8; (dn - dd + 1) as usize];
    let den_lead = den[dd as usize];
    for k in (0..=(dn - dd) as usize).rev() {
        let idx = k + dd as usize;
        let coef = rem[idx];
        if coef == 0 {
            continue;
        }
        let q = gf.div(coef, den_lead);
        quot[k] = q;
        for (j, &dc) in den.iter().enumerate().take(dd as usize + 1) {
            rem[k + j] ^= gf.mul(q, dc);
        }
    }
    trim_low(&mut rem);
    (quot, rem)
}

fn eval_low(gf: &Gf256, p: &[u8], x: u8) -> u8 {
    let mut y = 0u8;
    for &c in p.iter().rev() {
        y = gf.mul(y, x) ^ c;
    }
    y
}

/// Formal derivative in characteristic 2: keep odd-degree coefficients.
fn formal_derivative(p: &[u8]) -> Vec<u8> {
    if p.len() <= 1 {
        return vec![0];
    }
    let mut out = vec![0u8; p.len() - 1];
    for i in (1..p.len()).step_by(2) {
        out[i - 1] = p[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect()
    }

    #[test]
    fn one_pass_syndromes_are_the_serial_horner_evaluations() {
        let gf = Gf256::get();
        for (nroots, len) in [(32usize, 255usize), (32, 60), (16, 255), (2, 3)] {
            let rs = RsCodec::new(nroots);
            let mut cw = sample_data(len - nroots, 9);
            let parity = rs.encode(&cw);
            cw.extend_from_slice(&parity);
            let mut synd = vec![0xAA; nroots];
            assert!(rs.syndromes(&cw, &mut synd), "clean codeword");
            cw[len / 2] ^= 0x5C;
            cw[0] ^= 0x01;
            assert!(!rs.syndromes(&cw, &mut synd));
            for (j, &s) in synd.iter().enumerate() {
                assert_eq!(s, gf.poly_eval(&cw, gf.alpha_pow(FCR + j)), "nroots {nroots} S_{j}");
            }
        }
    }

    #[test]
    fn clean_codeword_decodes_unchanged() {
        let rs = RsCodec::new(32);
        let data = sample_data(223, 5);
        let parity = rs.encode(&data);
        let mut cw = data.clone();
        cw.extend_from_slice(&parity);
        assert_eq!(rs.decode(&mut cw, &[]), Ok(0));
        assert_eq!(&cw[..223], &data[..]);
    }

    #[test]
    fn corrects_up_to_t_errors() {
        let rs = RsCodec::new(32);
        let data = sample_data(223, 9);
        let parity = rs.encode(&data);
        let mut cw = data.clone();
        cw.extend_from_slice(&parity);
        // 16 scattered symbol errors = exactly t.
        for k in 0..16 {
            cw[k * 15 + 3] ^= (k as u8) + 1;
        }
        let fixed = rs.decode(&mut cw, &[]).expect("should correct t errors");
        assert_eq!(fixed, 16);
        assert_eq!(&cw[..223], &data[..]);
    }

    #[test]
    fn detects_more_than_t_errors() {
        let rs = RsCodec::new(8); // t = 4 for a quick test
        let data = sample_data(50, 1);
        let parity = rs.encode(&data);
        let mut cw = data.clone();
        cw.extend_from_slice(&parity);
        for k in 0..6 {
            cw[k * 7] ^= 0x55;
        }
        // With 6 > t = 4 errors the decoder must not silently "succeed" with
        // wrong data: either it errors out or (astronomically unlikely with
        // the verify pass) returns corrected data.
        match rs.decode(&mut cw, &[]) {
            Err(RsError::TooManyErrors) => {}
            Ok(_) => panic!("decoder claimed success beyond its correction radius"),
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn corrects_2t_erasures() {
        let rs = RsCodec::new(16); // t = 8, 2t = 16 erasures correctable
        let data = sample_data(100, 3);
        let parity = rs.encode(&data);
        let mut cw = data.clone();
        cw.extend_from_slice(&parity);
        let positions: Vec<usize> = (0..16).map(|k| k * 7).collect();
        for &p in &positions {
            cw[p] = 0xAA;
        }
        let fixed = rs.decode(&mut cw, &positions).expect("2t erasures");
        assert!(fixed <= 16);
        assert_eq!(&cw[..100], &data[..]);
    }

    #[test]
    fn corrects_mixed_errors_and_erasures() {
        // ν errors + e erasures correctable while 2ν + e ≤ 2t.
        let rs = RsCodec::new(32); // t = 16
        let data = sample_data(200, 77);
        let parity = rs.encode(&data);
        let mut cw = data.clone();
        cw.extend_from_slice(&parity);
        let erasures: Vec<usize> = (0..10).map(|k| 3 + k * 11).collect(); // e = 10
        for &p in &erasures {
            cw[p] ^= 0x3C;
        }
        for k in 0..11 {
            // ν = 11, 2·11 + 10 = 32 = 2t — right at the bound.
            cw[150 + k * 4] ^= 0x81;
        }
        rs.decode(&mut cw, &erasures).expect("errors+erasures at bound");
        assert_eq!(&cw[..200], &data[..]);
    }

    #[test]
    fn shortened_blocks_work() {
        let rs = RsCodec::new(32);
        for len in [1usize, 10, 100, 150] {
            let data = sample_data(len, len as u8);
            let parity = rs.encode(&data);
            let mut cw = data.clone();
            cw.extend_from_slice(&parity);
            cw[len / 2] ^= 0xFF;
            rs.decode(&mut cw, &[]).expect("shortened decode");
            assert_eq!(&cw[..len], &data[..], "len={len}");
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let rs = RsCodec::new(8);
        let mut short = vec![0u8; 8];
        assert_eq!(rs.decode(&mut short, &[]), Err(RsError::BadInput));
        let mut ok = vec![0u8; 20];
        assert_eq!(rs.decode(&mut ok, &[25]), Err(RsError::BadInput));
    }

    #[test]
    fn parity_is_deterministic() {
        let rs = RsCodec::new(32);
        let data = sample_data(223, 42);
        assert_eq!(rs.encode(&data), rs.encode(&data));
    }
}
