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
//!
//! [`parse_bytes`] reads a line of plain byte integers (`0`..=`255`,
//! one to three ASCII digits each) straight into `u8`s, the form a
//! byte-row snapshot searches. `parse_vector` walks the line one token
//! at a time: where a token ends decides where the next begins, a serial
//! chain through the byte position. `parse_bytes` breaks that chain in
//! two passes: the first finds every comma, eight bytes at a time, and
//! the second decodes each token from one little-endian word of its own,
//! so the tokens decode independently. Whenever it returns `Some`, the
//! bytes equal [`narrow`] of `parse_vector`'s vector; any other line
//! gets `None`, and the caller falls back to the general parser.

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

/// The bytes of `vector` when every coordinate round-trips bit-exactly
/// through `u8` (no fractions, negatives, values over 255 or `-0.0`):
/// the vectors a byte store holds, and the queries it answers as bytes.
pub fn narrow(vector: &[f64]) -> Option<Vec<u8>> {
    vector
        .iter()
        .map(|&x| {
            let b = x as u8;
            (f64::from(b).to_bits() == x.to_bits()).then_some(b)
        })
        .collect()
}

/// `b` in every byte of a `u64`.
const fn splat(b: u8) -> u64 {
    0x0101_0101_0101_0101 * b as u64
}

/// The high bit of each byte of `word` that is a comma, and no other
/// bit. Exact per byte: no carry or borrow crosses a byte, so a comma
/// never marks its neighbour.
fn comma_bits(word: u64) -> u64 {
    let x = word ^ splat(b',');
    // `(x & 0x7f) + 0x7f` sets a byte's high bit unless its low seven
    // bits are zero; or-ing `x` covers a set high bit.
    !(((x & splat(0x7f)) + splat(0x7f)) | x | splat(0x7f))
}

/// Pass one: the end of every token (each comma's offset, then the
/// text's length), or `None` for a text too long for `u32` offsets.
fn token_ends(bytes: &[u8]) -> Option<Vec<u32>> {
    let len = u32::try_from(bytes.len()).ok()?;
    // A line of byte tokens holds at most one comma in two bytes.
    let mut ends = Vec::with_capacity(bytes.len() / 2 + 1);
    let mut words = bytes.chunks_exact(8);
    let mut base = 0u32;
    for word in &mut words {
        let mut commas = comma_bits(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        while commas != 0 {
            ends.push(base + commas.trailing_zeros() / 8);
            commas &= commas - 1;
        }
        base += 8;
    }
    for (i, &b) in (base..).zip(words.remainder()) {
        if b == b',' {
            ends.push(i);
        }
    }
    ends.push(len);
    Some(ends)
}

/// Pass two, one token: `bytes[start..end]` as a byte when it is one to
/// three ASCII digits worth at most 255.
fn decode_byte(bytes: &[u8], start: usize, end: usize) -> Option<u8> {
    let len = end - start;
    if !(1..=3).contains(&len) {
        return None;
    }
    // The token's first byte is the word's lowest; what follows the
    // token is shifted out below.
    let word = match bytes.get(start..start + 4) {
        Some(four) => u32::from_le_bytes(four.try_into().expect("4 bytes")),
        None => bytes[start..]
            .iter()
            .rev()
            .fold(0, |w, &b| w << 8 | u32::from(b)),
    };
    // A digit byte becomes 0..=9. A borrow only leaves a byte that is
    // not a digit, and only moves up into the bytes after it, so the
    // first non-digit of the token still reads as one.
    let digits = word.wrapping_sub(0x3030_3030) << (8 * (3 - len));
    // Now the token fills bytes `3 - len..3`, below it zeros. A byte
    // over 9 sets its high bit once 0x76 is added (or was set already).
    if (digits.wrapping_add(0x0076_7676) | digits) & 0x0080_8080 != 0 {
        return None;
    }
    let hundreds = digits & 0xff;
    let tens = (digits >> 8) & 0xff;
    let ones = (digits >> 16) & 0xff;
    u8::try_from(hundreds * 100 + tens * 10 + ones).ok()
}

/// Parses a line of plain byte integers: comma-separated tokens of one
/// to three ASCII digits, each at most 255 (leading zeros allowed within
/// the three), with nothing else on the line. `Some(bytes)` always
/// equals `narrow(&parse_vector(text)?)`; every other line (signs,
/// whitespace, fractions, longer tokens, empty tokens) gets `None`.
pub fn parse_bytes(text: &str) -> Option<Vec<u8>> {
    let bytes = text.as_bytes();
    let ends = token_ends(bytes)?;
    let mut out = Vec::with_capacity(ends.len());
    let mut start = 0;
    for &end in &ends {
        let end = end as usize;
        out.push(decode_byte(bytes, start, end)?);
        start = end + 1;
    }
    Some(out)
}
