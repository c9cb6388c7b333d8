//! Differential test of the one vector-text parser against the
//! definition it replaces: `split(',')`, `trim`, `str::parse::<f64>`,
//! then a finiteness check. Values must agree bit for bit and errors
//! kind for kind, over integer tokens (the fast path) and every token
//! shape that must fall back.
//!
//! The byte parser is checked the same way: it takes exactly the lines
//! of one-to-three-digit tokens worth at most 255, and what it returns
//! equals `narrow(parse_vector(t))`.

use proptest::prelude::*;
use vantage_cli::vectext::{narrow, parse_bytes, parse_vector, VectorTextError};

fn reference(text: &str) -> Result<Vec<f64>, VectorTextError> {
    let v = text
        .split(',')
        .map(|t| t.trim().parse::<f64>())
        .collect::<Result<Vec<f64>, _>>()
        .map_err(|_| VectorTextError::NotAFloat)?;
    if v.iter().any(|x| !x.is_finite()) {
        return Err(VectorTextError::NonFinite);
    }
    Ok(v)
}

fn bits(v: Result<Vec<f64>, VectorTextError>) -> Result<Vec<u64>, VectorTextError> {
    v.map(|v| v.into_iter().map(f64::to_bits).collect())
}

fn assert_agrees(text: &str) {
    assert_eq!(bits(parse_vector(text)), bits(reference(text)), "{text:?}");
}

/// Tokens the fast path must refuse to take, or take exactly.
const SPECIAL: &[&str] = &[
    "-0",
    "+7",
    "007",
    " 12 ",
    "1e3",
    ".5",
    "5.",
    "inf",
    "-inf",
    "NaN",
    "",
    "-",
    "+",
    "+0",
    "--1",
    "0x10",
    "1_0",
    "1 2",
    " ",
    "12\r",
    "\u{661}\u{662}",
    "\u{ff11}\u{ff12}",
    "\u{3000}5",
    "-\u{661}",
    "9\u{e9}",
    "00000000000000000000",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775808",
    "9007199254740993",
    "1e400",
    "-1e-400",
];

/// splitmix64: one step of a deterministic stream from a proptest seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn digits(state: &mut u64, n: u64) -> String {
    (0..n)
        .map(|_| char::from(b'0' + (next(state) % 10) as u8))
        .collect()
}

fn token(state: &mut u64) -> String {
    let r = next(state);
    match r % 8 {
        // Any f64's `Display` form, NaN and infinities included.
        0 => format!("{}", f64::from_bits(next(state))),
        // Integers of 1..=20 digits, leading zeros allowed, either sign.
        1 => digits(state, 1 + (r >> 8) % 20),
        2 => format!("-{}", digits(state, 1 + (r >> 8) % 20)),
        // 8-bit pixels, as the MRI lines hold.
        3 => format!("{}", (r >> 8) % 256),
        // Unit-interval coordinates, as the uniform and clustered data.
        4 => format!("{}", (next(state) >> 11) as f64 / (1u64 << 53) as f64),
        5 => format!(
            "{}",
            ((next(state) >> 11) as f64 - (1u64 << 52) as f64) * 1e-3
        ),
        _ => SPECIAL[((r >> 8) % SPECIAL.len() as u64) as usize].to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]

    #[test]
    fn parser_matches_split_trim_parse(seed in any::<u64>(), len in 1usize..24, shape in 0u8..4) {
        let mut state = seed;
        let mut line = (0..len).map(|_| token(&mut state)).collect::<Vec<_>>().join(",");
        match shape {
            1 => line.push(','),
            2 => line.push('\r'),
            _ => {}
        }
        assert_agrees(&line);
    }

    #[test]
    fn integer_lines_take_the_fast_path_exactly(seed in any::<u64>(), len in 1usize..64) {
        // Only plain integers: any mismatch here is the fast path's.
        let mut state = seed;
        let line = (0..len)
            .map(|_| {
                let r = next(&mut state);
                let sign = if r & 1 == 1 { "-" } else { "" };
                format!("{sign}{}", digits(&mut state, 1 + (r >> 8) % 19))
            })
            .collect::<Vec<_>>()
            .join(",");
        let parsed = parse_vector(&line).expect("integers parse");
        prop_assert_eq!(bits(Ok(parsed)), bits(reference(&line)));
    }
}

#[test]
fn every_special_token_agrees_alone_and_in_context() {
    for t in SPECIAL {
        assert_agrees(t);
        assert_agrees(&format!("1,{t}"));
        assert_agrees(&format!("{t},2"));
        assert_agrees(&format!("3,{t},"));
    }
    for text in [",", ",,", "1,", ",1", "1,,2", "1,NaN,x", "x,NaN", "NaN,inf"] {
        assert_agrees(text);
    }
    // A parse error anywhere outranks a non-finite value anywhere.
    assert_eq!(parse_vector("NaN,x"), Err(VectorTextError::NotAFloat));
    assert_eq!(parse_vector("1,inf"), Err(VectorTextError::NonFinite));
    // `-0` keeps its sign; 2^53 + 1 rounds to even as `str::parse` does.
    assert_eq!(
        parse_vector("-0").unwrap()[0].to_bits(),
        (-0.0f64).to_bits()
    );
    assert_eq!(
        parse_vector("9007199254740993").unwrap(),
        [9007199254740992.0]
    );
}

#[test]
fn crlf_lines_agree_line_by_line() {
    let text = "0,1,2\r\n-3,4.5,6\r\n7, 8 ,9\r\n";
    for line in text.lines() {
        assert_agrees(line);
    }
    assert_eq!(parse_vector("7, 8 ,9\r").unwrap(), [7.0, 8.0, 9.0]);
}

/// What `parse_bytes` must return: the bytes when every token is one to
/// three ASCII digits worth at most 255, else `None`.
fn byte_reference(text: &str) -> Option<Vec<u8>> {
    text.split(',')
        .map(|t| {
            let plain = (1..=3).contains(&t.len()) && t.bytes().all(|b| b.is_ascii_digit());
            plain.then(|| t.parse::<u8>().ok()).flatten()
        })
        .collect()
}

/// `parse_bytes` takes exactly the plain byte lines, and agrees with
/// the general parser narrowed to bytes wherever it does.
fn assert_bytes_agree(text: &str) {
    let got = parse_bytes(text);
    assert_eq!(got, byte_reference(text), "{text:?}");
    if got.is_some() {
        let narrowed = parse_vector(text).ok().and_then(|v| narrow(&v));
        assert_eq!(got, narrowed, "{text:?}");
    }
}

/// Tokens at and around the byte path's edges.
const BYTE_SPECIAL: &[&str] = &[
    "0", "7", "42", "255", "256", "999", "0255", "00", "007", "-0", "+7", "7.0", "", " 7", "7 ",
    "1000", "\u{e9}", "2\u{e9}", "\u{661}", "\u{ff17}",
];

#[test]
fn byte_parser_takes_exactly_plain_byte_lines() {
    for t in SPECIAL.iter().chain(BYTE_SPECIAL) {
        assert_bytes_agree(t);
        assert_bytes_agree(&format!("1,{t}"));
        assert_bytes_agree(&format!("{t},2"));
        assert_bytes_agree(&format!("3,{t},"));
        assert_bytes_agree(&format!("{}{t},9", "12,".repeat(5)));
    }
    for text in [",", ",,", "1,", ",1", "1,,2", "255,0,9", "1,2,3,4,5,6,7,8"] {
        assert_bytes_agree(text);
    }
    assert_eq!(
        parse_bytes("0,9,10,99,100,255"),
        Some(vec![0, 9, 10, 99, 100, 255])
    );
    // `007` and `00` are taken, with the values `parse_vector` gives.
    assert_eq!(parse_bytes("007,00"), Some(vec![7, 0]));
    for refused in ["", "256", "0255", "-0", "+7", "7.0", " 7", "1,", "1,,2"] {
        assert_eq!(parse_bytes(refused), None, "{refused:?}");
    }
}

/// A line of exactly `len` bytes of byte tokens, widths drawn from
/// `state`, so tokens and commas land on every offset.
fn byte_line(state: &mut u64, len: usize) -> String {
    let mut line = String::new();
    while line.len() < len {
        let left = len - line.len();
        // Never leave exactly one byte: it could only be a trailing comma.
        let widths: Vec<usize> = (1..=left.min(3)).filter(|w| left - w != 1).collect();
        let width = widths[(next(state) % widths.len() as u64) as usize];
        let low = [0, 10, 100][width - 1];
        let high = [9, 99, 255][width - 1];
        line.push_str(&(low + next(state) % (high - low + 1)).to_string());
        if line.len() < len {
            line.push(',');
        }
    }
    line
}

#[test]
fn byte_parser_agrees_at_every_length_and_word_edge() {
    // Bytes of a typical query line, and some that must be refused.
    const ALPHABET: &[&str] = &[
        "0", "1", "2", "5", "9", ",", ",", ",", "-", ".", " ", "x", "\u{e9}",
    ];
    let mut state = 26;
    for len in 0..=200 {
        for _ in 0..8 {
            let line = byte_line(&mut state, len);
            assert_eq!(line.len(), len);
            assert_bytes_agree(&line);
            if len > 0 {
                assert!(parse_bytes(&line).is_some(), "{line:?}");
            }
            // The same line with one byte replaced, anywhere in it.
            if len > 0 {
                let at = (next(&mut state) % len as u64) as usize;
                let bad = ALPHABET[(next(&mut state) % ALPHABET.len() as u64) as usize];
                let mut mutated = line.as_bytes()[..at].to_vec();
                mutated.extend_from_slice(bad.as_bytes());
                mutated.extend_from_slice(&line.as_bytes()[at + 1..]);
                assert_bytes_agree(std::str::from_utf8(&mutated).unwrap());
            }
        }
        let noise: String = (0..len)
            .map(|_| ALPHABET[(next(&mut state) % ALPHABET.len() as u64) as usize])
            .collect();
        assert_bytes_agree(&noise);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn every_byte_vector_in_plain_decimal_takes_the_byte_path(
        bytes in proptest::collection::vec(any::<u8>(), 1..300)
    ) {
        let text = bytes.iter().map(u8::to_string).collect::<Vec<_>>().join(",");
        prop_assert_eq!(parse_bytes(&text), Some(bytes.clone()));
        // `f64` display form, as vbench and the smoke client send it.
        let floats: Vec<f64> = bytes.iter().map(|&b| f64::from(b)).collect();
        let text = floats.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
        prop_assert_eq!(parse_bytes(&text), Some(bytes));
    }
}
