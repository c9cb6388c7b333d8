//! Differential test of the one vector-text parser against the
//! definition it replaces: `split(',')`, `trim`, `str::parse::<f64>`,
//! then a finiteness check. Values must agree bit for bit and errors
//! kind for kind, over integer tokens (the fast path) and every token
//! shape that must fall back.

use proptest::prelude::*;
use vantage_cli::vectext::{parse_vector, VectorTextError};

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
