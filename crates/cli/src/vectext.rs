//! The one parser for vector text: a comma-separated list of finite
//! floats, as `--data` CSV lines, `--query` and the wire's `KNN`/`RANGE`/
//! `INSERT` items spell it.
//!
//! The result is bit-for-bit what `text.split(',').map(|t|
//! t.trim().parse::<f64>())` gives followed by a finiteness check, and
//! it fails exactly where that reference does. What it adds is speed on
//! integer tokens: the paper's MRI images are 8-bit pixels,
//! so a 4 096-d query line is 4 096 short integers, and `str::parse`'s
//! general decimal-to-binary path costs nearly as much as the search that
//! follows. A token of one to 19 ASCII digits with an optional
//! leading `-` is accumulated in a `u64` and cast with `as f64`; that
//! cast rounds to nearest-even, exactly as a correctly rounded parse of
//! the same integer does, and negating afterwards keeps `-0` as `-0.0`.
//! Every other token (a fraction, an exponent, a `+` sign, whitespace,
//! 20 or more digits) falls back to `str::parse` after a trim.

use std::fmt;

/// Why a vector text was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VectorTextError {
    /// Some token is not a float (`str::parse::<f64>` refuses it after
    /// a trim); empty tokens, as from a trailing comma, included.
    NotAFloat,
    /// Every token parses, but some coordinate is NaN or infinite. A
    /// NaN coordinate makes every distance NaN, and searches treat NaN
    /// candidates differently (a tree offers its vantage points
    /// unconditionally, a scan offers only `d <= radius`), so the answer
    /// would depend on the structure.
    NonFinite,
}

impl fmt::Display for VectorTextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            VectorTextError::NotAFloat => "not a comma-separated float vector",
            VectorTextError::NonFinite => "coordinates must be finite numbers",
        })
    }
}

/// Longest digit run the integer path takes: every 19-digit integer
/// fits a `u64` (`u64::MAX` has 20 digits).
const MAX_FAST_DIGITS: usize = 19;

/// Commas in `bytes`, counted in runs of at most 255 into a `u8` so the
/// compiler turns the count into byte-wide vector compares; a plain
/// `filter().count()` ran about ten times slower on a 15 KB line.
fn count_commas(bytes: &[u8]) -> usize {
    bytes
        .chunks(255)
        .map(|run| usize::from(run.iter().fold(0u8, |n, &b| n + u8::from(b == b','))))
        .sum()
}

/// Parses comma-separated finite floats. A parse error anywhere wins
/// over a non-finite value anywhere, as when the reference collects
/// every token first and checks finiteness after.
pub fn parse_vector(text: &str) -> Result<Vec<f64>, VectorTextError> {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(count_commas(bytes) + 1);
    let mut non_finite = false;
    let mut i = 0;
    loop {
        let start = i;
        let negative = bytes.get(i) == Some(&b'-');
        i += usize::from(negative);
        let digits_start = i;
        let mut value = 0u64;
        while let Some(digit) = bytes.get(i).map(|b| b.wrapping_sub(b'0')) {
            if digit > 9 {
                break;
            }
            value = value.wrapping_mul(10).wrapping_add(u64::from(digit));
            i += 1;
        }
        let digits = i - digits_start;
        let at_end = matches!(bytes.get(i), None | Some(b','));
        if at_end && (1..=MAX_FAST_DIGITS).contains(&digits) {
            let x = value as f64;
            out.push(if negative { -x } else { x });
        } else {
            let end = bytes[i..]
                .iter()
                .position(|&b| b == b',')
                .map_or(bytes.len(), |p| i + p);
            // `start` and `end` sit at ASCII bytes (or the ends), so
            // they are char boundaries.
            let x: f64 = text[start..end]
                .trim()
                .parse()
                .map_err(|_| VectorTextError::NotAFloat)?;
            non_finite |= !x.is_finite();
            out.push(x);
            i = end;
        }
        if i == bytes.len() {
            break;
        }
        i += 1; // the comma
    }
    if non_finite {
        return Err(VectorTextError::NonFinite);
    }
    Ok(out)
}
