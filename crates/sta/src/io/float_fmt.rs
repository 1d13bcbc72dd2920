//! Exact `f64` text for the interchange formats: [`write_f64_exp`] appends
//! the bytes `format!("{v:e}")` would, without going through `core::fmt`.
//!
//! The digits are the shortest that parse back to the same `f64`, and among
//! those the closest to the exact binary value, an exact tie rounding up
//! (std's `{:e}` contract; the Ryū reference rounds ties to even instead).
//! They are computed with the Ryū algorithm (Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018): the value's rounding interval is scaled by a
//! 128-bit approximation of a power of five so that only 64-bit integer
//! work is left, then trailing digits are removed while the interval
//! still holds a shorter number. The layout is std's: `d[.ddd]e<exp>`,
//! `-` only for a set sign bit, `0e0`/`-0e0`, `inf`/`-inf`, and `NaN`
//! for every NaN (std prints no sign for NaN).
//!
//! The power-of-five tables are built at compile time by `const fn`s from
//! exact multi-word integers, so there is no committed table to drift.

/// Width of each table entry's significand, in bits.
const POW5_BITCOUNT: i32 = 125;
const POW5_INV_BITCOUNT: i32 = 125;

/// `5^i` for `i` up to 325 covers the smallest subnormal
/// (`e2 = -1076` gives `i = 325`).
const POW5_TABLE_SIZE: usize = 326;
/// `2^k / 5^q` for `q` up to 290 covers `f64::MAX` (`e2 = 969` gives
/// `q = 290`).
const POW5_INV_TABLE_SIZE: usize = 291;

/// Words of the exact integers the tables are cut from: `2^916` (the
/// largest dividend) needs 15 words of 64 bits.
const WORDS: usize = 15;
/// `2^DIVIDEND_BITS` divided by `5^q` gives every inverse entry at once:
/// the largest entry needs `bitlen(5^290) - 1 + 125` bits, and nested
/// floor division by 5 and by powers of two is exact.
const DIVIDEND_BITS: u32 = 916;

type Big = [u64; WORDS];

/// Bit length of `5^e` (`ceil(log2(5^e))`, and 1 for `e = 0`); exact for
/// `0 <= e <= 3528`.
const fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))` for `0 <= e <= 1650`.
const fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `floor(log10(5^e))` for `0 <= e <= 2620`.
const fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// `(a >> shift)` truncated to its low 128 bits.
const fn big_shr_128(a: &Big, shift: u32) -> u128 {
    let w = (shift / 64) as usize;
    let b = shift % 64;
    if b == 0 {
        word(a, w) | (word(a, w + 1) << 64)
    } else {
        (word(a, w) >> b) | (word(a, w + 1) << (64 - b)) | (word(a, w + 2) << (128 - b))
    }
}

/// Word `i` of `a`, zero past the top.
const fn word(a: &Big, i: usize) -> u128 {
    if i < WORDS {
        a[i] as u128
    } else {
        0
    }
}

/// The low 128 bits of `a` (all of it when `a < 2^128`).
const fn big_low_128(a: &Big) -> u128 {
    a[0] as u128 | ((a[1] as u128) << 64)
}

const fn big_bitlen(a: &Big) -> u32 {
    let mut i = WORDS;
    while i > 0 {
        i -= 1;
        if a[i] != 0 {
            return 64 * i as u32 + (64 - a[i].leading_zeros());
        }
    }
    0
}

const fn split(v: u128) -> [u64; 2] {
    [v as u64, (v >> 64) as u64]
}

/// `POW5_SPLIT[i]`: the top 125 bits of `5^i` (truncated), as `[low, high]`.
const fn pow5_table() -> [[u64; 2]; POW5_TABLE_SIZE] {
    let mut table = [[0u64; 2]; POW5_TABLE_SIZE];
    let mut pow: Big = [0; WORDS];
    pow[0] = 1;
    let mut i = 0;
    while i < POW5_TABLE_SIZE {
        let len = big_bitlen(&pow);
        let top = if len <= POW5_BITCOUNT as u32 {
            big_low_128(&pow) << (POW5_BITCOUNT as u32 - len)
        } else {
            big_shr_128(&pow, len - POW5_BITCOUNT as u32)
        };
        table[i] = split(top);
        // pow *= 5
        let mut carry = 0u128;
        let mut w = 0;
        while w < WORDS {
            let t = pow[w] as u128 * 5 + carry;
            pow[w] = t as u64;
            carry = t >> 64;
            w += 1;
        }
        i += 1;
    }
    table
}

/// `POW5_INV_SPLIT[q]`: `floor(2^(bitlen(5^q) - 1 + 125) / 5^q) + 1`, as
/// `[low, high]`. Each entry is cut from `floor(2^916 / 5^q)`, which is
/// carried from one `q` to the next by one exact division by 5.
const fn pow5_inv_table() -> [[u64; 2]; POW5_INV_TABLE_SIZE] {
    let mut table = [[0u64; 2]; POW5_INV_TABLE_SIZE];
    let mut quot: Big = [0; WORDS];
    quot[(DIVIDEND_BITS / 64) as usize] = 1 << (DIVIDEND_BITS % 64);
    let mut q = 0;
    while q < POW5_INV_TABLE_SIZE {
        let j = (pow5bits(q as i32) - 1 + POW5_INV_BITCOUNT) as u32;
        table[q] = split(big_shr_128(&quot, DIVIDEND_BITS - j) + 1);
        // quot /= 5
        let mut rem = 0u128;
        let mut w = WORDS;
        while w > 0 {
            w -= 1;
            let cur = (rem << 64) | quot[w] as u128;
            quot[w] = (cur / 5) as u64;
            rem = cur % 5;
        }
        q += 1;
    }
    table
}

static POW5_SPLIT: [[u64; 2]; POW5_TABLE_SIZE] = pow5_table();
static POW5_INV_SPLIT: [[u64; 2]; POW5_INV_TABLE_SIZE] = pow5_inv_table();

fn pow5_factor(mut value: u64) -> u32 {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count
}

fn multiple_of_pow5(value: u64, p: u32) -> bool {
    pow5_factor(value) >= p
}

/// `(m × mul) >> j` for a 125-bit table entry `mul` and `j >= 64`.
fn mul_shift(m: u64, mul: &[u64; 2], j: i32) -> u64 {
    let b0 = u128::from(m) * u128::from(mul[0]);
    let b2 = u128::from(m) * u128::from(mul[1]);
    (((b0 >> 64) + b2) >> (j - 64)) as u64
}

/// The shortest round-trip decimal `digits × 10^exp` of a positive finite
/// `f64` given by its raw mantissa and biased exponent fields.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    const MANTISSA_BITS: i32 = 52;
    const BIAS: i32 = 1023;
    // Two extra bits so the interval bounds are integers.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS - 2, ieee_mantissa)
    } else {
        (ieee_exponent as i32 - BIAS - MANTISSA_BITS - 2, (1u64 << MANTISSA_BITS) | ieee_mantissa)
    };
    // Round-half-even parsing accepts the interval bounds of an even
    // mantissa.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // The lower bound is closer when the mantissa field is zero (the
    // binade below is twice as dense), except at the two lowest binades.
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    // Scale the interval [mv - 1 - mm_shift, mv + 2] by 2^e2 into base 10.
    let (mut vr, mut vp, mut vm);
    let e10;
    // Whether vm is exact (the product has no truncated digits), which
    // decides if the lower bound itself may be printed.
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        let i = -e2 + q as i32 + k;
        let mul = &POW5_INV_SPLIT[q as usize];
        vr = mul_shift(4 * m2, mul, i);
        vp = mul_shift(4 * m2 + 2, mul, i);
        vm = mul_shift(4 * m2 - 1 - mm_shift, mul, i);
        // At most one of mp, mv, mm is a multiple of 5; an exact mv
        // needs no care, as a tie rounds up like any larger remainder.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let mul = &POW5_SPLIT[i as usize];
        vr = mul_shift(4 * m2, mul, j);
        vp = mul_shift(4 * m2 + 2, mul, j);
        vm = mul_shift(4 * m2 - 1 - mm_shift, mul, j);
        if q <= 1 {
            if accept_bounds {
                // mm = mv - 1 - mm_shift has a trailing zero bit iff
                // mm_shift is 1.
                vm_trailing_zeros = mm_shift == 1;
            } else {
                // mp = mv + 2 has at least one.
                vp -= 1;
            }
        }
    }

    // Remove digits while the interval still holds a shorter number.
    let mut removed = 0i32;
    // std rounds an exact tie up (Ryū's reference rounds it to even), so
    // the removed digits only matter as "at least half".
    let output = if vm_trailing_zeros {
        // Rare general case: the lower bound is exact and may be printed.
        let mut last_removed = 0u64;
        while vp / 10 > vm / 10 {
            vm_trailing_zeros &= vm % 10 == 0;
            last_removed = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_trailing_zeros {
            while vm % 10 == 0 {
                last_removed = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        let outside = vr == vm && (!accept_bounds || !vm_trailing_zeros);
        vr + u64::from(outside || last_removed >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// `"00" "01" … "99"`: two digits per table read.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Number of decimal digits of `v`, for `0 < v < 10^17`. Counts down
/// from 17: most shortest round-trip significands have 15 to 17 digits.
fn decimal_length17(v: u64) -> usize {
    let mut len = 17;
    let mut bound = 10_000_000_000_000_000; // 10^16
    while len > 1 && v < bound {
        len -= 1;
        bound /= 10;
    }
    len
}

/// Writes `x < 10^8` as eight zero-padded digits into `block`.
fn put_block8(block: &mut [u8], x: u32) {
    let (hi, lo) = (x / 10_000, x % 10_000);
    put_pair(block, 0, hi / 100);
    put_pair(block, 2, hi % 100);
    put_pair(block, 4, lo / 100);
    put_pair(block, 6, lo % 100);
}

/// Writes `d`'s two digits (`d < 100`) at `buf[at..at + 2]`.
fn put_pair(buf: &mut [u8], at: usize, d: u32) {
    let i = 2 * d as usize;
    buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[i..i + 2]);
}

/// Longest text [`write_f64_exp`] produces: `-d.dddddddddddddddde-324`.
const MAX_LEN: usize = 24;

/// Appends `v` exactly as `format!("{v:e}")` renders it: shortest
/// round-trip digits as `d[.ddd]e<exp>`, plus `0e0`, `-0e0`, `inf`, `-inf`
/// and `NaN`. The text is assembled in a stack buffer and appended with
/// one copy; nothing is allocated beyond `out`'s own growth.
pub fn write_f64_exp(out: &mut String, v: f64) {
    let mut buf = [0u8; MAX_LEN];
    let len = encode(v, &mut buf);
    push_ascii(out, &buf[..len]);
}

/// Appends ` <v>` for each value in [`write_f64_exp`]'s text. The values
/// are encoded into one stack buffer that is appended a few hundred bytes
/// at a time: the UTF-8 check and copy of an append cost about as much as
/// encoding a value, so sharing them across a LUT's values matters (the
/// traced model serialize reads 4.1 ns/B this way, 5.5 ns/B appending each
/// value on its own).
pub(crate) fn write_f64_list(out: &mut String, values: &[f64]) {
    let mut buf = [0u8; 512];
    let mut len = 0;
    for &v in values {
        if len + 1 + MAX_LEN > buf.len() {
            push_ascii(out, &buf[..len]);
            len = 0;
        }
        buf[len] = b' ';
        len += 1;
        len += encode(v, &mut buf[len..len + MAX_LEN]);
    }
    push_ascii(out, &buf[..len]);
}

/// Appends `v` in decimal, exactly as `v.to_string()` renders it, without
/// going through `core::fmt`: the id and count writer of the text formats.
pub fn write_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while v >= 100 {
        at -= 2;
        put_pair(&mut buf, at, (v % 100) as u32);
        v /= 100;
    }
    if v >= 10 {
        at -= 2;
        put_pair(&mut buf, at, v as u32);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    push_ascii(out, &buf[at..]);
}

/// Appends bytes written by [`encode`]: all ASCII, so the `Err` branch
/// is never taken.
fn push_ascii(out: &mut String, bytes: &[u8]) {
    if let Ok(text) = std::str::from_utf8(bytes) {
        out.push_str(text);
    }
}

/// Writes `v`'s `{:e}` text at the start of `buf` (at least [`MAX_LEN`]
/// bytes) and returns its length.
fn encode(v: f64, buf: &mut [u8]) -> usize {
    fn put(buf: &mut [u8], text: &str) -> usize {
        buf[..text.len()].copy_from_slice(text.as_bytes());
        text.len()
    }
    if v.is_nan() {
        return put(buf, "NaN");
    }
    let bits = v.to_bits();
    let negative = bits >> 63 != 0;
    let ieee_exponent = ((bits >> 52) & 0x7ff) as u32;
    let ieee_mantissa = bits & ((1u64 << 52) - 1);
    if ieee_exponent == 0x7ff {
        return put(buf, if negative { "-inf" } else { "inf" });
    }
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        return put(buf, if negative { "-0e0" } else { "0e0" });
    }
    let (digits, exp) = shortest(ieee_mantissa, ieee_exponent);
    let len = decimal_length17(digits);

    // All 17 digit positions, zero-padded, are written without branching
    // on the digit count; the significand is then the last `len` of them.
    // The tail copy is a fixed 16 bytes (what follows is overwritten).
    let mut padded = [b'0'; 33];
    let (hi, lo) = (digits / 100_000_000, (digits % 100_000_000) as u32);
    padded[0] = b'0' + (hi / 100_000_000) as u8;
    put_block8(&mut padded[1..9], (hi % 100_000_000) as u32);
    put_block8(&mut padded[9..17], lo);
    let first = 17 - len;
    let at = usize::from(negative);
    buf[0] = b'-';
    buf[at] = padded[first];
    buf[at + 1] = b'.';
    buf[at + 2..at + 18].copy_from_slice(&padded[first + 1..first + 17]);
    // Without a fractional part there is no dot either.
    let mut end = if len > 1 { at + len + 1 } else { at + 1 };

    buf[end] = b'e';
    end += 1;
    let sci = exp + len as i32 - 1;
    if sci < 0 {
        buf[end] = b'-';
        end += 1;
    }
    // |exponent| <= 324: at most three digits.
    let e = sci.unsigned_abs();
    if e >= 100 {
        put_pair(buf, end, e / 10);
        buf[end + 2] = b'0' + (e % 10) as u8;
        end += 3;
    } else if e >= 10 {
        put_pair(buf, end, e);
        end += 2;
    } else {
        buf[end] = b'0' + e as u8;
        end += 1;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp_text(v: f64) -> String {
        let mut s = String::new();
        write_f64_exp(&mut s, v);
        s
    }

    fn assert_std(v: f64) {
        assert_eq!(exp_text(v), format!("{v:e}"), "bits {:#018x}", v.to_bits());
    }

    #[test]
    fn integers_are_written_as_to_string() {
        let mut cases = vec![0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, u64::from(u32::MAX), u64::MAX];
        for p in 1..20 {
            let t = 10u64.pow(p);
            cases.extend([t - 1, t, t + 1]);
        }
        for v in cases {
            let mut s = String::from("x");
            write_u64(&mut s, v);
            assert_eq!(s, format!("x{v}"));
        }
    }

    /// Schoolbook arbitrary-precision reference for the table entries.
    fn pow5_exact(i: usize) -> Vec<u64> {
        let mut x = vec![1u64];
        for _ in 0..i {
            let mut carry = 0u128;
            for w in &mut x {
                let t = u128::from(*w) * 5 + carry;
                *w = t as u64;
                carry = t >> 64;
            }
            if carry > 0 {
                x.push(carry as u64);
            }
        }
        x
    }

    fn bitlen(x: &[u64]) -> u32 {
        let top = x.len() - 1;
        64 * top as u32 + (64 - x[top].leading_zeros())
    }

    fn bit(x: &[u64], i: i64) -> u128 {
        if i < 0 || i as usize / 64 >= x.len() {
            0
        } else {
            u128::from((x[i as usize / 64] >> (i % 64)) & 1)
        }
    }

    #[test]
    fn forward_table_holds_the_top_125_bits_of_each_power() {
        for (i, entry) in POW5_SPLIT.iter().enumerate() {
            let p = pow5_exact(i);
            let len = i64::from(bitlen(&p));
            let mut want = 0u128;
            for b in (len - 125..len).rev() {
                want = (want << 1) | bit(&p, b);
            }
            assert_eq!(*entry, split(want), "5^{i}");
        }
    }

    #[test]
    fn inverse_table_is_the_rounded_up_reciprocal() {
        // floor(2^j / 5^q) + 1 by restoring long division, independent of
        // the const builder's nested-division shortcut.
        for (q, entry) in POW5_INV_SPLIT.iter().enumerate() {
            let p = pow5_exact(q);
            let len = bitlen(&p);
            let j = len - 1 + 125;
            let mut rem: Vec<u64> = vec![0; p.len() + 1];
            let mut quot = 0u128;
            for step in 0..=j {
                // rem = 2 rem + the next dividend bit (only the top one is set)
                let mut carry = u64::from(step == 0);
                for w in &mut rem {
                    let next = *w >> 63;
                    *w = (*w << 1) | carry;
                    carry = next;
                }
                quot <<= 1;
                let ge = {
                    let mut ord = std::cmp::Ordering::Equal;
                    for w in (0..rem.len()).rev() {
                        let pw = p.get(w).copied().unwrap_or(0);
                        if rem[w] != pw {
                            ord = rem[w].cmp(&pw);
                            break;
                        }
                    }
                    ord != std::cmp::Ordering::Less
                };
                if ge {
                    let mut borrow = 0u64;
                    for (w, r) in rem.iter_mut().enumerate() {
                        let pw = p.get(w).copied().unwrap_or(0);
                        let (d1, b1) = r.overflowing_sub(pw);
                        let (d2, b2) = d1.overflowing_sub(borrow);
                        *r = d2;
                        borrow = u64::from(b1 || b2);
                    }
                    quot |= 1;
                }
            }
            assert_eq!(*entry, split(quot + 1), "2^{j} / 5^{q}");
        }
    }

    #[test]
    fn tables_cover_every_exponent() {
        for ieee_exponent in 0..0x7ffu32 {
            let e2 = if ieee_exponent == 0 { -1076 } else { ieee_exponent as i32 - 1077 };
            if e2 >= 0 {
                let q = log10_pow2(e2) - u32::from(e2 > 3);
                assert!((q as usize) < POW5_INV_TABLE_SIZE, "e2 {e2}");
            } else {
                let q = log10_pow5(-e2) - u32::from(-e2 > 1);
                assert!(((-e2 - q as i32) as usize) < POW5_TABLE_SIZE, "e2 {e2}");
            }
        }
    }

    #[test]
    fn special_values_match_std() {
        for v in [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff8_0000_dead_beef),
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            1.0,
            -1.0,
            0.1 + 0.2,
            1.5,
            123_456.0,
            9_007_199_254_740_993.0,
        ] {
            assert_std(v);
        }
        assert_eq!(exp_text(-f64::NAN), "NaN");
        assert_eq!(exp_text(-0.0), "-0e0");
        assert_eq!(exp_text(f64::from_bits(1)), "5e-324");
    }

    #[test]
    fn every_power_of_ten_and_its_neighbours_match_std() {
        for e in -323..=308 {
            let Ok(v) = format!("1e{e}").parse::<f64>() else { continue };
            for w in [v, v.next_up(), v.next_down(), -v] {
                assert_std(w);
            }
        }
    }

    #[test]
    fn binade_edges_and_small_integers_match_std() {
        for e in 0..0x7ffu64 {
            for m in [0u64, 1, 2, 3, (1 << 52) - 1, (1 << 52) - 2, 1 << 51] {
                assert_std(f64::from_bits((e << 52) | m));
            }
        }
        for i in 0..10_000u32 {
            assert_std(f64::from(i));
            assert_std(f64::from(i) / 1000.0);
        }
    }

    #[test]
    fn lists_match_std_across_buffer_flushes() {
        // 200 values of up to 25 bytes overflow the 512-byte stack buffer
        // several times.
        let mut bits = 0x9e37_79b9_7f4a_7c15u64;
        let values: Vec<f64> = (0..200)
            .map(|_| {
                bits ^= bits << 13;
                bits ^= bits >> 7;
                bits ^= bits << 17;
                f64::from_bits(bits)
            })
            .collect();
        let mut ours = String::from("[");
        write_f64_list(&mut ours, &values);
        let std_text: String = values.iter().map(|v| format!(" {v:e}")).collect();
        assert_eq!(ours, format!("[{std_text}"));
    }

    #[test]
    fn appends_without_touching_what_is_there() {
        let mut s = String::from("x ");
        write_f64_exp(&mut s, 2.5e-7);
        write_f64_exp(&mut s, -3.0);
        assert_eq!(s, "x 2.5e-7-3e0");
    }
}
