//! Shortest round-trip float formatting without `core::fmt`.
//!
//! [`write_f64`] prints exactly what `format!("{:?}", v)` prints for a
//! finite `f64`: the shortest decimal digit string that parses back to the
//! same bits (the closest such string when several have that length), in
//! plain notation with at least one fractional digit when
//! `1e-4 <= |v| < 1e16` or `v == 0`, and as `d.ddde±x` otherwise.
//!
//! The digits come from Ryu (Ulf Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018): the binary interval of values that round to `v`
//! is scaled by a 125-bit approximation of a power of five, and digits are
//! removed while the interval still holds a shorter decimal. The two power
//! tables are computed here at compile time from exact big-integer
//! arithmetic, so no table is copied in and nothing runs at start-up.

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
const POW5_INV_BITCOUNT: i32 = 125;
const POW5_BITCOUNT: i32 = 125;

/// Entries of [`POW5_INV`]: `q <= log10_pow2(969)`, where 969 is the
/// largest `e2` of a finite double.
const POW5_INV_LEN: usize = 292;
/// Entries of [`POW5`]: `i = -e2 - q <= 325` over all subnormal and normal
/// exponents.
const POW5_LEN: usize = 326;

/// Limbs of the big integers the tables are cut from: 5^325 needs 755
/// bits and the reciprocal numerator 2^[`INV_NUMERATOR_BITS`] 833, plus two
/// limbs of headroom for the 128-bit window read.
const LIMBS: usize = 16;
/// `2^INV_NUMERATOR_BITS / 5^i` holds every reciprocal the table needs:
/// the largest shift is `pow5bits(291) - 1 + 125 = 800`.
const INV_NUMERATOR_BITS: i32 = 832;

/// `ceil(log2(5^e))` for `e >= 1`, and 1 for `e == 0` (valid to e = 3528).
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

type Big = [u64; LIMBS];

const fn mul5(mut x: Big) -> Big {
    let mut carry = 0u128;
    let mut k = 0;
    while k < LIMBS {
        let cur = x[k] as u128 * 5 + carry;
        x[k] = cur as u64;
        carry = cur >> 64;
        k += 1;
    }
    x
}

/// `floor(x / 5)`.
const fn div5(mut x: Big) -> Big {
    let mut rem = 0u128;
    let mut k = LIMBS;
    while k > 0 {
        k -= 1;
        let cur = (rem << 64) | x[k] as u128;
        x[k] = (cur / 5) as u64;
        rem = cur % 5;
    }
    x
}

/// `floor(x / 2^shift)` (or `x * 2^-shift` for a negative shift), for
/// results below 2^128.
const fn window(x: &Big, shift: i32) -> u128 {
    if shift < 0 {
        return (x[0] as u128 | (x[1] as u128) << 64) << -shift;
    }
    let (k, b) = ((shift / 64) as usize, (shift % 64) as u32);
    let low = x[k] as u128 | (x[k + 1] as u128) << 64;
    if b == 0 {
        low
    } else {
        (low >> b) | (x[k + 2] as u128) << (128 - b)
    }
}

/// `POW5[i]`: the top 125 bits of `5^i`, i.e.
/// `floor(5^i / 2^(pow5bits(i) - 125))`.
static POW5: [u128; POW5_LEN] = {
    let mut table = [0u128; POW5_LEN];
    let mut p: Big = [0; LIMBS];
    p[0] = 1;
    let mut i = 0;
    while i < POW5_LEN {
        table[i] = window(&p, pow5bits(i as i32) - POW5_BITCOUNT);
        p = mul5(p);
        i += 1;
    }
    table
};

/// `POW5_INV[q]`: `floor(2^(pow5bits(q) - 1 + 125) / 5^q) + 1`, cut from
/// `floor(2^832 / 5^q)` (floors of repeated exact division compose).
static POW5_INV: [u128; POW5_INV_LEN] = {
    let mut table = [0u128; POW5_INV_LEN];
    let mut x: Big = [0; LIMBS];
    x[(INV_NUMERATOR_BITS / 64) as usize] = 1 << (INV_NUMERATOR_BITS % 64);
    let mut q = 0;
    while q < POW5_INV_LEN {
        let j = pow5bits(q as i32) - 1 + POW5_INV_BITCOUNT;
        table[q] = window(&x, INV_NUMERATOR_BITS - j) + 1;
        x = div5(x);
        q += 1;
    }
    table
};

/// `(m * mul) >> j` for a 125-bit `mul` and `j >= 64`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = m as u128 * (mul as u64) as u128;
    let high = m as u128 * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// Whether `5^p` divides `v` (`v > 0`).
fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// The shortest (then closest) `(digits, e10)` with `digits * 10^e10`
/// parsing back to the positive finite nonzero double with bits `bits`.
fn shortest(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1u64 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as u32;
    // two extra bits for the interval bounds
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1u64 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // round-half-even parsing accepts the interval ends for even mantissas
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // the lower end is closer at a power of two
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    // the interval [mm, mp] around mv, scaled into decimal: v* = m* x 2^e2
    // becomes v* x 10^-e10 (truncated). `vm_exact` records whether mm's
    // scaled value is exact, which matters only when mm is itself a valid
    // output (accept_bounds).
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_exact = false;
    let scaled = |mul: u128, j: i32| {
        (mul_shift(mv, mul, j), mul_shift(mv + 2, mul, j), mul_shift(mv - 1 - mm_shift, mul, j))
    };
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        (vr, vp, vm) = scaled(POW5_INV[q as usize], -e2 + q as i32 + k);
        // at most one of mp, mv, mm is a multiple of 5
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_exact = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITCOUNT;
        (vr, vp, vm) = scaled(POW5[i as usize], q as i32 - k);
        if q <= 1 {
            if accept_bounds {
                // mm has a trailing zero bit iff mm_shift == 1
                vm_exact = mm_shift == 1;
            } else {
                // mp = mv + 2 is exact, and excluded
                vp -= 1;
            }
        }
    }

    // remove digits while the interval still holds a shorter decimal; the
    // last removed digit rounds vr, half up (as `core::fmt`'s shortest
    // mode does on an exact tie, where Ryu rounds half to even)
    let mut removed = 0;
    let mut last_removed = 0;
    while vp / 10 > vm / 10 {
        vm_exact &= vm % 10 == 0;
        last_removed = vr % 10;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    if vm_exact {
        // mm itself is shorter still
        while vm % 10 == 0 {
            last_removed = vr % 10;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
    }
    // vr == vm is below the interval unless mm is exact and included
    let below = vr == vm && !vm_exact;
    (vr + u64::from(below || last_removed >= 5), e10 + removed)
}

/// Writes the decimal digits of `v` to the front of `buf`; returns how
/// many.
pub(crate) fn write_digits(mut v: u64, buf: &mut [u8]) -> usize {
    let mut tmp = [0u8; 20];
    let mut start = tmp.len();
    loop {
        start -= 1;
        tmp[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    let len = tmp.len() - start;
    buf[..len].copy_from_slice(&tmp[start..]);
    len
}

/// Appends `v` as `format!("{v:?}")` would; `v` must be finite.
pub(crate) fn write_f64(out: &mut String, v: f64) {
    debug_assert!(v.is_finite());
    let mut buf = [0u8; 32];
    let mut len = 0;
    if v.is_sign_negative() {
        buf[0] = b'-';
        len = 1;
    }
    let abs = v.abs();
    if abs == 0.0 {
        buf[len..len + 3].copy_from_slice(b"0.0");
        len += 3;
    } else {
        let (mantissa, e10) = shortest(abs.to_bits());
        let mut digits = [0u8; 20];
        let n = write_digits(mantissa, &mut digits);
        let digits = &digits[..n];
        // decimal exponent of the leading digit
        let sci = e10 + n as i32 - 1;
        let mut put = |bytes: &[u8]| {
            buf[len..len + bytes.len()].copy_from_slice(bytes);
            len += bytes.len();
        };
        if !(1e-4..1e16).contains(&abs) {
            put(&digits[..1]);
            if n > 1 {
                put(b".");
                put(&digits[1..]);
            }
            put(b"e");
            if sci < 0 {
                put(b"-");
            }
            let mut exp = [0u8; 20];
            let m = write_digits(u64::from(sci.unsigned_abs()), &mut exp);
            put(&exp[..m]);
        } else if sci < 0 {
            put(b"0.");
            for _ in 0..(-sci - 1) {
                put(b"0");
            }
            put(digits);
        } else if sci as usize + 1 >= n {
            put(digits);
            for _ in 0..(sci as usize + 1 - n) {
                put(b"0");
            }
            put(b".0");
        } else {
            let point = sci as usize + 1;
            put(&digits[..point]);
            put(b".");
            put(&digits[point..]);
        }
    }
    out.push_str(std::str::from_utf8(&buf[..len]).expect("the float writer emits ASCII"));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The float writer's text for `v`.
    fn text(v: f64) -> String {
        let mut out = String::new();
        write_f64(&mut out, v);
        out
    }

    #[track_caller]
    fn check(v: f64) {
        if v.is_finite() {
            assert_eq!(text(v), format!("{v:?}"), "bits {:#018x}", v.to_bits());
        }
    }

    /// SplitMix64: a fixed, dependency-free stream of bit patterns.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Every random bit pattern (NaN and infinities excepted) and the
    /// widening of every random f32 pattern print as `{:?}` prints them.
    fn random_identity(count: u64, seed: u64) {
        let mut state = seed;
        for _ in 0..count {
            let bits = splitmix(&mut state);
            check(f64::from_bits(bits));
            check(f64::from(f32::from_bits(bits as u32)));
        }
    }

    #[test]
    fn tables_match_the_published_entries() {
        // the first entries of Ryu's d2s tables, as (high, low) words
        let split = |x: u128| ((x >> 64) as u64, x as u64);
        assert_eq!(split(POW5[0]), (1_152_921_504_606_846_976, 0));
        assert_eq!(split(POW5[1]), (1_441_151_880_758_558_720, 0));
        assert_eq!(split(POW5_INV[0]), (2_305_843_009_213_693_952, 1));
        assert_eq!(split(POW5_INV[1]), (1_844_674_407_370_955_161, 11_068_046_444_225_730_970));
        for (i, x) in POW5.iter().enumerate() {
            assert_eq!(128 - x.leading_zeros(), 125, "POW5[{i}] has 125 bits");
        }
    }

    #[test]
    fn edge_values_print_as_debug() {
        let mut values = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            5e-324,
            0.1,
            0.3,
            1.0 / 3.0,
            2.0 / 3.0,
            100.0,
            123456.0,
            9007199254740993.0,
        ];
        // subnormals: the smallest few, powers of two and the largest
        for bits in (1..64).chain((0..52).map(|k| 1 << k)).chain([(1 << 52) - 1, 1 << 52]) {
            values.push(f64::from_bits(bits));
        }
        // every power of two and of ten in range, and their neighbours
        for e in -1074..=1023 {
            values.push(2f64.powi(e));
        }
        for e in -324..=308 {
            values.push(format!("1e{e}").parse().unwrap());
        }
        // neighbours of the plain/exponent switch points and of 1e17
        for pivot in [1e-5, 1e-4, 1e15, 1e16, 1e17] {
            values.push(pivot);
        }
        let mut all = Vec::new();
        for v in values {
            let bits = f64::to_bits(v);
            for d in 0..=16u64 {
                all.push(f64::from_bits(bits.wrapping_add(d)));
                all.push(f64::from_bits(bits.wrapping_sub(d)));
            }
        }
        for v in all {
            check(v);
            check(-v);
            check(f64::from(v as f32));
        }
    }

    #[test]
    fn random_bit_patterns_print_as_debug() {
        random_identity(100_000, 1);
    }

    /// The full identity check: 10^7 random f64 and f32 bit patterns. Run
    /// in release with `--include-ignored`.
    #[test]
    #[ignore = "10^7 patterns; run in release with --include-ignored"]
    fn ten_million_random_bit_patterns_print_as_debug() {
        random_identity(10_000_000, 0x5eed);
    }
}
