//! Exact `f64` values from the interchange formats' text: [`read_f64`]
//! reads a number token in one pass and gives the bits
//! `f64::from_str` would.
//!
//! The fast path accepts only the strict grammar
//! `[+-]digits[.digits][(e|E)[+-]digits]`, the shape [`super::write_f64_exp`]
//! and every other writer here produce. Digits are accumulated eight at a
//! time (SWAR) into a 64-bit significand `w` with decimal exponent `q`.
//! Clinger's exact path handles `w <= 2^53` and `|q| <= 22` with one
//! correctly rounded `f64` operation; everything else goes through the
//! Eisel–Lemire algorithm (Lemire, "Number Parsing at a Gigabyte per
//! Second", Software: Practice and Experience 51(8), 2021), which
//! multiplies `w` by a 128-bit approximation of `5^q` and reports when
//! the product is too close to a rounding boundary to decide.
//!
//! `str::parse` stays the fallback, on the token's exact text: for more
//! than 19 significant digits, for an undecided Eisel–Lemire product,
//! and for any text outside the strict grammar (`.5`, `5.`, `1e`,
//! `1.5.5`, ...). So every value, and every accept or reject, is std's.
//!
//! The power-of-five table is built at compile time by a `const fn` from
//! exact multi-word integers (shared with the float writer), so there is
//! no committed table to drift.

use super::float_fmt::{big_div5, big_mul5, big_pow2, big_top_128, pow5bits, split};

/// Bytes that continue a number token: digits, `.`, and the exponent
/// markers. A sign continues one only right after a marker.
const NUMBER_BODY: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = b'0';
    while b <= b'9' {
        table[b as usize] = true;
        b += 1;
    }
    table[b'.' as usize] = true;
    table[b'e' as usize] = true;
    table[b'E' as usize] = true;
    table
};

/// Below `10^-342` every significand of at most 19 digits rounds to
/// zero; above `10^308` every nonzero one overflows.
const SMALLEST_POWER_OF_TEN: i64 = -342;
const LARGEST_POWER_OF_TEN: i64 = 308;
const POW5_128_SIZE: usize = (LARGEST_POWER_OF_TEN - SMALLEST_POWER_OF_TEN + 1) as usize;

/// `2^DIVIDEND_BITS / 5^k` gives every negative-exponent entry at once:
/// the largest, `k = 342`, divides `2^(2 bitlen(5^342) + 128)`.
const DIVIDEND_BITS: u32 = 2 * pow5bits(-SMALLEST_POWER_OF_TEN as i32) as u32 + 128;
const WORDS: usize = DIVIDEND_BITS as usize / 64 + 1;

type Big = [u64; WORDS];

/// `POW5_128[q + 342]`, as `[low, high]`, is Eisel–Lemire's 128-bit
/// approximation of `5^q`:
/// - `q >= 0`: the top 128 bits of `5^q`, truncated (exact up to `q = 55`);
/// - `-27 <= q < 0`: `floor(2^b / 5^-q) + 1` with `b = bitlen(5^-q) + 127`,
///   which has exactly 128 bits;
/// - `q < -27`: the top 128 bits, truncated, of `floor(2^b / 5^-q) + 1`
///   with `b = 2 bitlen(5^-q) + 128`.
const fn pow5_128_table() -> [[u64; 2]; POW5_128_SIZE] {
    let zero = -SMALLEST_POWER_OF_TEN as usize;
    let mut table = [[0u64; 2]; POW5_128_SIZE];
    let mut pow: Big = big_pow2(0);
    let mut q = 0;
    while zero + q < POW5_128_SIZE {
        table[zero + q] = split(big_top_128(&pow));
        big_mul5(&mut pow);
        q += 1;
    }
    let mut quot: Big = big_pow2(DIVIDEND_BITS);
    let mut k = 1;
    while k <= zero {
        big_div5(&mut quot);
        let z = pow5bits(k as i32) as u32;
        let b = if k <= 27 { z + 127 } else { 2 * z + 128 };
        // floor(2^b / 5^k) = floor(quot / 2^(DIVIDEND_BITS - b)), plus one.
        let mut f = big_shr(&quot, DIVIDEND_BITS - b);
        big_add1(&mut f);
        table[zero - k] = split(big_top_128(&f));
        k += 1;
    }
    table
}

/// `a >> shift`.
const fn big_shr(a: &Big, shift: u32) -> Big {
    let (w, b) = ((shift / 64) as usize, shift % 64);
    let mut out = [0; WORDS];
    let mut i = 0;
    while i + w < WORDS {
        let lo = a[i + w] >> b;
        let hi = if b > 0 && i + w + 1 < WORDS { a[i + w + 1] << (64 - b) } else { 0 };
        out[i] = lo | hi;
        i += 1;
    }
    out
}

/// `a += 1`.
const fn big_add1(a: &mut Big) {
    let mut i = 0;
    while i < WORDS {
        a[i] = a[i].wrapping_add(1);
        if a[i] != 0 {
            return;
        }
        i += 1;
    }
}

static POW5_128: [[u64; 2]; POW5_128_SIZE] = pow5_128_table();

/// `10^0 ..= 10^22`, each exactly representable.
const POW10_EXACT: [f64; 23] = {
    let mut table = [1.0; 23];
    let mut i = 1;
    while i < table.len() {
        table[i] = table[i - 1] * 10.0;
        i += 1;
    }
    table
};

/// Reads the number token at the start of `text` and returns its value,
/// or `None` when the token is malformed, with the token's byte length.
///
/// The token is the lexer's: the first character, then every digit, `.`
/// and exponent marker, and a sign right after a marker. Its value is
/// exactly `f64::from_str` of that text, and `None` exactly where
/// `from_str` fails.
#[must_use]
pub fn read_f64(text: &str) -> (Option<f64>, usize) {
    match read_strict(text.as_bytes()) {
        Some((value, len)) => (Some(value), len),
        None => {
            let len = token_len(text);
            (text[..len].parse().ok(), len)
        }
    }
}

/// Byte length of the number token at the start of `text`.
fn token_len(text: &str) -> usize {
    let bytes = text.as_bytes();
    let mut end = text.chars().next().map_or(0, char::len_utf8);
    loop {
        match bytes.get(end) {
            Some(&b) if NUMBER_BODY[usize::from(b)] => end += 1,
            Some(b'+' | b'-') if matches!(bytes[end - 1], b'e' | b'E') => end += 1,
            _ => return end,
        }
    }
}

/// The fast path: a token in the strict grammar with at most 19
/// significant digits and a decided rounding. `None` leaves the token to
/// `str::parse`.
pub(super) fn read_strict(b: &[u8]) -> Option<(f64, usize)> {
    let (negative, mut i) = match b.first()? {
        b'-' => (true, 1),
        b'+' => (false, 1),
        _ => (false, 0),
    };
    let mut w = 0u64;
    let int_start = i;
    i = digits(b, i, &mut w);
    let int_end = i;
    if int_end == int_start {
        return None;
    }
    let mut frac_start = i;
    if b.get(i) == Some(&b'.') {
        frac_start = i + 1;
        i = digits(b, frac_start, &mut w);
        if i == frac_start {
            return None;
        }
    }
    let frac_digits = i - frac_start;
    let mut n_digits = int_end - int_start + frac_digits;
    let mut exp = 0i64;
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        let exp_negative = match b.get(i) {
            Some(b'-') => {
                i += 1;
                true
            }
            Some(b'+') => {
                i += 1;
                false
            }
            _ => false,
        };
        let start = i;
        while let Some(&d) = b.get(i).filter(|d| d.is_ascii_digit()) {
            // Saturates far beyond any exponent that is not 0 or inf.
            if exp < 0x1_0000 {
                exp = 10 * exp + i64::from(d - b'0');
            }
            i += 1;
        }
        if i == start {
            return None;
        }
        if exp_negative {
            exp = -exp;
        }
    }
    // The lexer's token would run on (`1.5.5`, `1e5e`): not this grammar.
    if b.get(i).is_some_and(|&c| NUMBER_BODY[usize::from(c)]) {
        return None;
    }
    if n_digits > 19 {
        // Leading zeros are not significant digits (and add nothing to w).
        let zeros = b[int_start..i].iter().take_while(|&&c| c == b'0' || c == b'.').count();
        n_digits -= b[int_start..int_start + zeros].iter().filter(|&&c| c == b'0').count();
        if n_digits > 19 {
            return None;
        }
    }
    let magnitude = if w == 0 { 0.0 } else { decimal_to_f64(w, exp - frac_digits as i64)? };
    Some((if negative { -magnitude } else { magnitude }, i))
}

/// Appends the decimal digits at `b[i..]` to `w` (wrapping past 19
/// digits) and returns the index after them.
fn digits(b: &[u8], mut i: usize, w: &mut u64) -> usize {
    while let Some(chunk) = b.get(i..).and_then(<[u8]>::first_chunk::<8>) {
        let v = u64::from_le_bytes(*chunk);
        if !eight_digits(v) {
            break;
        }
        *w = w.wrapping_mul(100_000_000).wrapping_add(parse_eight_digits(v));
        i += 8;
    }
    while let Some(&d) = b.get(i).filter(|d| d.is_ascii_digit()) {
        *w = w.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
        i += 1;
    }
    i
}

/// Eight `b'0'` bytes.
const ASCII_ZEROS: u64 = 0x3030_3030_3030_3030;

/// Whether all eight bytes of `v` are ASCII digits.
fn eight_digits(v: u64) -> bool {
    let above = v.wrapping_add(0x4646_4646_4646_4646);
    let below = v.wrapping_sub(ASCII_ZEROS);
    (above | below) & 0x8080_8080_8080_8080 == 0
}

/// The value of eight ASCII digits, first digit in the low byte.
fn parse_eight_digits(v: u64) -> u64 {
    const MASK: u64 = 0x0000_00ff_0000_00ff;
    const MUL1: u64 = 0x000f_4240_0000_0064; // 10^6 << 32 | 100
    const MUL2: u64 = 0x0000_2710_0000_0001; // 10^4 << 32 | 1
    let v = v - ASCII_ZEROS;
    // Adjacent digits into pairs, then pairs into two 4-digit halves.
    let v = v * 10 + (v >> 8);
    let hi = (v & MASK).wrapping_mul(MUL1);
    let lo = ((v >> 16) & MASK).wrapping_mul(MUL2);
    u64::from((hi.wrapping_add(lo) >> 32) as u32)
}

/// `w × 10^q` rounded to nearest, ties to even, for `w > 0`; `None` when
/// Eisel–Lemire cannot decide the rounding.
fn decimal_to_f64(w: u64, q: i64) -> Option<f64> {
    if q < SMALLEST_POWER_OF_TEN {
        return Some(0.0);
    }
    if q > LARGEST_POWER_OF_TEN {
        return Some(f64::INFINITY);
    }
    if w <= 1 << 53 && (-22..=22).contains(&q) {
        // Clinger: both operands exact, so one rounding.
        let (v, p) = (w as f64, POW10_EXACT[q.unsigned_abs() as usize]);
        return Some(if q < 0 { v / p } else { v * p });
    }
    eisel_lemire(w, q as i32).map(f64::from_bits)
}

/// Explicit significand bits of an `f64`.
const MANTISSA_BITS: i32 = 52;

/// The bits of `w × 10^q` for `w > 0` and `q` within the table, or `None`
/// when the 128-bit product leaves the rounding undecided.
fn eisel_lemire(w: u64, q: i32) -> Option<u64> {
    let lz = w.leading_zeros();
    let w = w << lz;
    let (lo, hi) = product_approx(w, q);
    // The truncated product may sit just below a rounding boundary. Only
    // where 5^q needs more than 64 bits and is not exact in 128 bits
    // (outside q in [-27, 55]) can that change the result.
    if lo == u64::MAX && !(-27..=55).contains(&q) {
        return None;
    }
    let upper_bit = (hi >> 63) as i32;
    let shift = upper_bit + 64 - MANTISSA_BITS - 3;
    let mut mantissa = hi >> shift;
    // floor(log2(10^q)) + 63, plus the biased exponent's offset.
    let mut power2 = ((q * (152_170 + 65_536)) >> 16) + 63 + upper_bit - lz as i32 + 1023;
    if power2 <= 0 {
        // Subnormal, or zero with more than 64 bits below the minimum.
        if -power2 + 1 >= 64 {
            return Some(0);
        }
        mantissa >>= -power2 + 1;
        mantissa += mantissa & 1;
        mantissa >>= 1;
        // Rounding up into the least normal sets the exponent field to 1.
        let biased = u64::from(mantissa >= 1 << MANTISSA_BITS);
        return Some(mantissa | (biased << MANTISSA_BITS));
    }
    // An exact halfway product (only possible while 5^q fits in 64 bits)
    // rounds to even: drop the half bit when the kept bit is even.
    if lo <= 1 && (-4..=23).contains(&q) && mantissa & 3 == 1 && (mantissa << shift) == hi {
        mantissa &= !1;
    }
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if mantissa >= 2 << MANTISSA_BITS {
        mantissa = 1 << MANTISSA_BITS;
        power2 += 1;
    }
    mantissa &= !(1 << MANTISSA_BITS);
    if power2 >= 0x7ff {
        return Some(f64::INFINITY.to_bits());
    }
    Some(mantissa | ((power2 as u64) << MANTISSA_BITS))
}

/// The top 128 bits of `w × 5^q` for normalised `w`, as `(low, high)`:
/// one 64-bit product when its top `MANTISSA_BITS + 3` bits are settled,
/// otherwise corrected by the low half of the table entry.
fn product_approx(w: u64, q: i32) -> (u64, u64) {
    const MASK: u64 = u64::MAX >> (MANTISSA_BITS + 3);
    let [lo5, hi5] = POW5_128[(q - SMALLEST_POWER_OF_TEN as i32) as usize];
    let first = u128::from(w) * u128::from(hi5);
    let (mut lo, mut hi) = (first as u64, (first >> 64) as u64);
    if hi & MASK == MASK {
        let second_hi = ((u128::from(w) * u128::from(lo5)) >> 64) as u64;
        lo = lo.wrapping_add(second_hi);
        if second_hi > lo {
            hi += 1;
        }
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(bits, length)` of `read_f64` and of `str::parse` on the token
    /// the lexer's rule cuts from `text`.
    fn both(text: &str) -> ((Option<u64>, usize), (Option<u64>, usize)) {
        let (value, len) = read_f64(text);
        let want = token_len(text);
        ((value.map(f64::to_bits), len), (text[..want].parse::<f64>().ok().map(f64::to_bits), want))
    }

    fn assert_std(text: &str) {
        let (ours, std) = both(text);
        assert_eq!(ours, std, "on {text:?}");
    }

    #[test]
    fn reads_simple_values() {
        assert_eq!(read_f64("1.5e-7 x"), (Some(1.5e-7), 6));
        assert_eq!(read_f64("-0"), (Some(-0.0), 2));
        assert!(read_f64("-0").0.is_some_and(f64::is_sign_negative));
        assert_eq!(read_f64("+12;"), (Some(12.0), 3));
        assert_eq!(read_f64("1.5.5"), (None, 5));
        assert_eq!(read_f64("1e+]"), (None, 3));
        assert_eq!(read_f64(".5"), (Some(0.5), 2));
        assert_eq!(read_f64("5."), (Some(5.0), 2));
        assert_eq!(read_f64("1-2"), (Some(1.0), 1));
        assert_eq!(read_f64("é"), (None, 2));
        assert_eq!(read_f64(""), (None, 0));
    }

    #[test]
    fn edge_values_match_std() {
        for text in [
            "9007199254740993",
            "9007199254740992",
            "9007199254740995",
            "9007199254740993.0000000000001",
            "2.2250738585072011e-308",
            "2.2250738585072014e-308",
            "2.225073858507201136057409796709131975934819546351645648e-308",
            "4.9406564584124654e-324",
            "2.4703282292062327e-324",
            "2.4703282292062328e-324",
            "1.7976931348623158e308",
            "1.7976931348623159e308",
            "1.797693134862315807e308",
            "1e-400",
            "1e400",
            "-1e400",
            "0e99999999999999999999",
            "1e-99999999999999999999",
            "1e99999999999999999999",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999",
            "0.000000000000000000001234567890123456789",
            "00000000000000000000001",
            "1.00000000000000000000",
            "7.2057594037927933e16",
            "1448997445238699",
            "8.98846567431158e307",
            "3.0e-22",
            "1e23",
            "1e22",
            "-0.0e5",
        ] {
            assert_std(text);
        }
        for e in -342..=308 {
            for m in ["1", "9", "5", "2.5", "123456789012345678", "9999999999999999999"] {
                assert_std(&format!("{m}e{e}"));
            }
        }
    }

    #[test]
    fn halfway_ties_round_to_even() {
        // 2^53 + 1 and + 3 are ties between neighbours 2 apart.
        assert_eq!(read_f64("9007199254740993").0, Some(9_007_199_254_740_992.0));
        assert_eq!(read_f64("9007199254740995").0, Some(9_007_199_254_740_996.0));
        // Ties outside Clinger's range: every odd multiple of a half-ulp
        // of a power of two that is exactly representable in decimal.
        for e in 54..64 {
            let base = 1u64 << e;
            let half_ulp = 1u64 << (e - 53);
            for k in [1u64, 3, 5, 7, 1001] {
                let tie = base + k * half_ulp;
                assert_std(&tie.to_string());
                assert_std(&format!("{tie}e3"));
            }
        }
    }

    /// SplitMix64 step, for drawing inputs from one proptest seed.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A random decimal: sign, 1–25 significant digits with leading and
    /// trailing zeros around them, an optional dot and exponent in
    /// ±400, sometimes broken.
    fn random_decimal(state: &mut u64) -> String {
        let mut r = |n: u64| splitmix(state) % n;
        let mut s = String::new();
        match r(3) {
            0 => s.push('-'),
            1 => s.push('+'),
            _ => {}
        }
        for _ in 0..r(4) {
            s.push('0');
        }
        let sig = 1 + r(25);
        let dot = r(sig + 2);
        for i in 0..sig {
            if i == dot {
                s.push('.');
            }
            s.push(char::from(b'0' + r(10) as u8));
        }
        for _ in 0..r(5) {
            s.push('0');
        }
        if r(2) == 0 {
            s.push(if r(2) == 0 { 'e' } else { 'E' });
            match r(3) {
                0 => s.push('-'),
                1 => s.push('+'),
                _ => {}
            }
            if r(20) != 0 {
                s.push_str(&r(401).to_string());
            }
        }
        if r(16) == 0 {
            let junk = [".", "e", "5", "-", "x", ".5", "e+"];
            s.push_str(junk[r(junk.len() as u64) as usize]);
        }
        s
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 8192, ..Default::default() })]

        /// `{:e}`, `{}` and `{:?}` text of random bit patterns read back
        /// to std's value and bits.
        #[test]
        fn formatted_bit_patterns_read_as_std(bits in 0u64..u64::MAX) {
            let v = f64::from_bits(bits);
            for text in [format!("{v:e}"), format!("{v}"), format!("{v:?}")] {
                let (ours, std) = both(&text);
                proptest::prop_assert_eq!(ours, std, "on {}", text);
                if v.is_finite() {
                    proptest::prop_assert_eq!(ours, (Some(bits), text.len()), "on {}", text);
                }
            }
        }

        /// Random decimal strings match std's accept/reject, length and
        /// bits.
        #[test]
        fn random_decimals_read_as_std(seed in 0u64..u64::MAX) {
            let mut state = seed;
            for _ in 0..8 {
                let text = random_decimal(&mut state);
                let (ours, std) = both(&text);
                proptest::prop_assert_eq!(ours, std, "on {}", text);
            }
        }
    }

    /// Schoolbook arbitrary-precision integers for the table reference.
    mod big {
        pub(super) use crate::io::float_fmt::tests::pow5_exact as pow5;

        pub fn bitlen(x: &[u64]) -> usize {
            x.iter()
                .rposition(|&w| w != 0)
                .map_or(0, |i| 64 * i + 64 - x[i].leading_zeros() as usize)
        }

        pub fn bit(x: &[u64], i: usize) -> bool {
            x.get(i / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1)
        }

        /// `floor(2^b / p)` by restoring long division, one bit at a time.
        pub fn pow2_div(b: usize, p: &[u64]) -> Vec<u64> {
            let mut quot = vec![0u64; b / 64 + 1];
            let mut rem = vec![0u64; p.len() + 1];
            for step in (0..=b).rev() {
                let mut carry = u64::from(step == b);
                for w in &mut rem {
                    let next = *w >> 63;
                    *w = (*w << 1) | carry;
                    carry = next;
                }
                let ge = (0..rem.len())
                    .rev()
                    .map(|w| rem[w].cmp(p.get(w).unwrap_or(&0)))
                    .find(|o| o.is_ne())
                    != Some(std::cmp::Ordering::Less);
                if ge {
                    let mut borrow = false;
                    for (w, r) in rem.iter_mut().enumerate() {
                        let (d1, b1) = r.overflowing_sub(*p.get(w).unwrap_or(&0));
                        let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
                        *r = d2;
                        borrow = b1 || b2;
                    }
                    quot[step / 64] |= 1 << (step % 64);
                }
            }
            quot
        }

        pub fn add1(x: &mut Vec<u64>) {
            for w in x.iter_mut() {
                *w = w.wrapping_add(1);
                if *w != 0 {
                    return;
                }
            }
            x.push(1);
        }

        /// Bits `[from, from + 128)` of `x`.
        pub fn bits128(x: &[u64], from: isize) -> u128 {
            (0..128).rev().fold(0u128, |acc, i| {
                let at = from + i;
                (acc << 1) | u128::from(at >= 0 && bit(x, at as usize))
            })
        }
    }

    #[test]
    fn power_of_five_table_matches_its_definition() {
        for (i, entry) in POW5_128.iter().enumerate() {
            let q = i as i64 + SMALLEST_POWER_OF_TEN;
            let want = if q >= 0 {
                let p = big::pow5(q as usize);
                big::bits128(&p, big::bitlen(&p) as isize - 128)
            } else {
                let p = big::pow5((-q) as usize);
                let z = big::bitlen(&p);
                let b = if q >= -27 { z + 127 } else { 2 * z + 128 };
                let mut c = big::pow2_div(b, &p);
                big::add1(&mut c);
                let len = big::bitlen(&c);
                if q >= -27 {
                    assert_eq!(len, 128, "q {q}");
                }
                big::bits128(&c, len as isize - 128)
            };
            assert_eq!(*entry, split(want), "q {q}");
        }
    }
}
