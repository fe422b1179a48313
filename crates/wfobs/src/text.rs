//! Text writers the exporters share: each appends to the document being
//! built and allocates nothing of its own.
//!
//! They print exactly what `format!` would, so a renderer can use them in
//! place of `format!` without changing a byte:
//!
//! - [`push_u64`] / [`push_i64`] / [`push_hex16`]: `{}` and `{:016x}`;
//! - [`push_scaled`]: `{:.k$}` of `n as f64 / 10^k`, for a nanosecond count
//!   printed as microseconds (k = 3) or seconds (k = 9);
//! - [`push_f64`]: `{}` of an `f64`;
//! - [`push_esc`]: a string escaped for a JSON string literal.

use std::fmt::Write as _;

/// Below this many nanoseconds [`push_scaled`] prints by integer
/// arithmetic. `n < 1e15 < 2^53` converts to `f64` exactly, and the
/// quotient `n / 10^k` is then rounded once, to within half an ulp: at
/// most 2^-14 when k = 3 (quotient < 1e12 < 2^40) and 2^-34 when k = 9
/// (quotient < 1e6 < 2^20). Both are far below half of the last printed
/// digit (5·10^-4 and 5·10^-10), so `{:.k$}` of the quotient prints the
/// exact decimal `n / 10^k`: its integer part, a point, and `n % 10^k`
/// zero-padded to k digits.
pub(crate) const EXACT_SCALED_BOUND: u64 = 1_000_000_000_000_000;

/// Decimal digits of `n`, right-aligned in `buf`; returns where they start.
fn digits(buf: &mut [u8; 20], mut n: u64) -> usize {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return i;
        }
    }
}

/// Append ASCII bytes (every writer here produces only ASCII).
fn push_ascii(out: &mut String, bytes: &[u8]) {
    out.push_str(std::str::from_utf8(bytes).expect("ASCII digits"));
}

/// Append `n` as `{}` prints it.
pub(crate) fn push_u64(out: &mut String, n: u64) {
    let mut buf = [0u8; 20];
    let start = digits(&mut buf, n);
    push_ascii(out, &buf[start..]);
}

/// Append `n` as `{}` prints it.
pub(crate) fn push_i64(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    push_u64(out, n.unsigned_abs());
}

/// Append `v` as `{:016x}` prints it.
pub(crate) fn push_hex16(out: &mut String, v: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut buf = [0u8; 16];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = HEX[((v >> (60 - 4 * i)) & 0xf) as usize];
    }
    push_ascii(out, &buf);
}

/// Append `n / 10^k` with `k` decimals, as `{:.k$}` prints
/// `n as f64 / 10^k` (`k` is 3 or 9). Exact integer arithmetic below
/// [`EXACT_SCALED_BOUND`]; the float path above it.
pub(crate) fn push_scaled(out: &mut String, n: u64, k: u32) {
    debug_assert!(k == 3 || k == 9, "only microseconds and seconds");
    let pow = 10u64.pow(k);
    if n >= EXACT_SCALED_BOUND {
        let _ = write!(out, "{:.*}", k as usize, n as f64 / pow as f64);
        return;
    }
    push_u64(out, n / pow);
    out.push('.');
    // Zero-filled, so the fraction's leading zeros are already in place.
    let mut buf = [b'0'; 20];
    digits(&mut buf, n % pow);
    push_ascii(out, &buf[buf.len() - k as usize..]);
}

/// Append `v` as `{}` prints it. Integral values in `[0, 1e15)` print
/// their digits directly: `{}` never uses an exponent and prints no
/// fraction for an integral `f64`, and those values convert to `u64`
/// exactly. Everything else (negative, -0.0, fractional, non-finite,
/// large) takes `{}` itself.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v.is_sign_positive() && v < 1e15 && v.fract() == 0.0 {
        push_u64(out, v as u64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Whether `b` must be escaped inside a JSON string literal. Multibyte
/// UTF-8 sequences never contain such a byte.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// Append `s` escaped for a JSON string literal. A string with nothing to
/// escape (every label the simulator makes) is copied as is.
pub(crate) fn push_esc(out: &mut String, s: &str) {
    if s.bytes().any(needs_escape) {
        esc_chars(out, s);
    } else {
        out.push_str(s);
    }
}

/// Escape `s` char by char: quote, backslash, `\n`, `\t`, `\r`, and
/// `\u00XX` for the other control characters.
fn esc_chars(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn scaled(n: u64, k: u32) -> String {
        let mut s = String::new();
        push_scaled(&mut s, n, k);
        s
    }

    fn float_scaled(n: u64, k: u32) -> String {
        format!("{:.*}", k as usize, n as f64 / 10u64.pow(k) as f64)
    }

    fn f64_text(v: f64) -> String {
        let mut s = String::new();
        push_f64(&mut s, v);
        s
    }

    fn escaped(s: &str) -> (String, String) {
        let (mut fast, mut slow) = (String::new(), String::new());
        push_esc(&mut fast, s);
        esc_chars(&mut slow, s);
        (fast, slow)
    }

    #[test]
    fn integers_and_hex_match_format() {
        for n in [0, 1, 9, 10, 99, 100, 12_345, u64::MAX - 1, u64::MAX] {
            let mut s = String::new();
            push_u64(&mut s, n);
            assert_eq!(s, format!("{n}"));
            s.clear();
            push_hex16(&mut s, n);
            assert_eq!(s, format!("{n:016x}"));
        }
        for n in [0, -1, 7, i64::MIN, i64::MAX, -1_000_000] {
            let mut s = String::new();
            push_i64(&mut s, n);
            assert_eq!(s, format!("{n}"));
        }
    }

    #[test]
    fn scaled_matches_float_at_edges() {
        let b = EXACT_SCALED_BOUND;
        let mut ns: Vec<u64> = vec![0, 1, 10, 999, 1_000, 1_001, 1_000_000_000];
        // Fractions with trailing zeros, and integral results.
        ns.extend([
            1_500,
            120_000_000,
            3_000_000_000,
            2_500_000_100,
            987_654_321_000,
        ]);
        ns.extend((b - 1_000..b + 1_000).step_by(7));
        ns.extend([b - 1, b, b + 1]);
        for n in ns {
            for k in [3, 9] {
                assert_eq!(scaled(n, k), float_scaled(n, k), "n = {n}, k = {k}");
            }
        }
    }

    #[test]
    fn scaled_takes_the_float_path_above_the_bound() {
        // Above 2^53 the integer digits and the float path part ways; the
        // writer must print what the float path prints.
        for n in [
            1u64 << 60,
            u64::MAX,
            (1 << 53) + 1,
            EXACT_SCALED_BOUND * 10 + 1,
        ] {
            for k in [3, 9] {
                assert_eq!(scaled(n, k), float_scaled(n, k), "n = {n}, k = {k}");
            }
        }
        let n = u64::MAX;
        let exact = format!("{}.{:03}", n / 1_000, n % 1_000);
        assert_ne!(scaled(n, 3), exact, "the integer path would differ here");
    }

    #[test]
    fn f64_matches_display_on_edge_values() {
        let one_e15 = 1e15f64;
        let edges = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            9_007_199_254_740_992.0, // 2^53
            9_007_199_254_740_991.0,
            9_007_199_254_740_993.0,
            one_e15,
            f64::from_bits(one_e15.to_bits() - 1),
            f64::from_bits(one_e15.to_bits() + 1),
            0.5,
            1.0,
            3.0,
            -3.0,
            0.9,
            2.0,
            1e-7,
            123_456_789.0,
        ];
        for v in edges {
            assert_eq!(f64_text(v), format!("{v}"), "bits {:016x}", v.to_bits());
        }
    }

    #[test]
    fn fast_escape_matches_char_escape_on_edge_strings() {
        for s in [
            "",
            "plain",
            "é",
            "say \"hi\"",
            "a\\b",
            "\u{1}",
            "\u{1f}x",
            "\n\t\r",
            "日本",
        ] {
            let (fast, slow) = escaped(s);
            assert_eq!(fast, slow, "{s:?}");
        }
        assert_eq!(escaped("\u{7}").0, "\\u0007");
    }

    /// Characters a random label is drawn from: plain ASCII, every escaped
    /// character, control characters, and two- to four-byte UTF-8.
    const ALPHABET: [char; 16] = [
        'a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '\r', '\u{0}', '\u{1f}', '\u{7f}', 'é', '€',
        '日', '🦀',
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn scaled_matches_float_below_the_bound(n in 0u64..EXACT_SCALED_BOUND) {
            prop_assert_eq!(scaled(n, 3), float_scaled(n, 3));
            prop_assert_eq!(scaled(n, 9), float_scaled(n, 9));
        }

        #[test]
        fn scaled_matches_float_on_small_and_round_values(
            n in 0u64..1_000_000,
            zeros in 0u32..10,
        ) {
            let n = n * 10u64.pow(zeros);
            prop_assert_eq!(scaled(n, 3), float_scaled(n, 3));
            prop_assert_eq!(scaled(n, 9), float_scaled(n, 9));
        }

        #[test]
        fn scaled_matches_float_near_and_above_the_bound(
            d in 0u64..=2_000,
            n in EXACT_SCALED_BOUND..=u64::MAX,
        ) {
            let near = EXACT_SCALED_BOUND - 1_000 + d;
            prop_assert_eq!(scaled(near, 3), float_scaled(near, 3));
            prop_assert_eq!(scaled(near, 9), float_scaled(near, 9));
            prop_assert_eq!(scaled(n, 3), float_scaled(n, 3));
            prop_assert_eq!(scaled(n, 9), float_scaled(n, 9));
        }

        #[test]
        fn f64_matches_display_on_random_bits(bits in 0u64..=u64::MAX) {
            let v = f64::from_bits(bits);
            prop_assert_eq!(f64_text(v), format!("{v}"));
        }

        #[test]
        fn f64_matches_display_on_integral_values(n in 0u64..2_000_000_000_000_000, neg in 0u8..2) {
            let v = if neg == 1 { -(n as f64) } else { n as f64 };
            prop_assert_eq!(f64_text(v), format!("{v}"));
        }

        #[test]
        fn fast_escape_matches_char_escape(
            picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..24),
            clean in 0u8..2,
        ) {
            // Half the strings keep to characters that need no escaping,
            // so the fast path is taken as well as skipped.
            let s: String = picks
                .iter()
                .map(|&i| ALPHABET[i])
                .filter(|&c| clean == 0 || !(c < ' ' || c == '"' || c == '\\'))
                .collect();
            let (fast, slow) = escaped(&s);
            prop_assert_eq!(fast, slow);
        }
    }
}
