//! Machine words for the parallel-pattern bit planes.
//!
//! The two-bit-plane encoding (see [`crate::plane`]) packs one faulty
//! machine per bit, so the word width directly sets the batch capacity:
//! a `u64` lane carries the fault-free machine plus 63 faulty machines,
//! a `u128` lane 127, and the feature-gated 256-bit lane 255. Every
//! kernel, schedule and state type is generic over [`Word`]; the
//! width is picked once per simulator at construction time via
//! [`WordWidth`] (`SimOptions::word_width`) and dispatched to the
//! monomorphized engines at the public `FaultSim` entry points.
//!
//! The trait deliberately exposes only the operations the kernels use —
//! bitwise algebra, single-bit construction, population count and a
//! fixed-width limb export for width-erased debugging surfaces — so a
//! new lane type is a page of forwarding impls.

use std::fmt::Debug;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, Not};

/// Number of `u64` limbs in the width-erased plane export
/// ([`Word::limbs`]); sized for the largest supported lane (256 bits).
pub(crate) const LIMBS: usize = 4;

/// A plane word: one bit per simulated machine.
pub(crate) trait Word:
    Copy
    + Send
    + Sync
    + Eq
    + Default
    + Debug
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + Not<Output = Self>
    + BitAndAssign
    + BitOrAssign
    + 'static
{
    /// Width in bits; the batch capacity is `BITS - 1` faulty machines
    /// (bit 0 is the fault-free machine).
    const BITS: u32;
    /// The empty mask.
    const ZERO: Self;
    /// Bit 0 only — the fault-free machine's lane.
    const LSB: Self;
    /// All bits set.
    const ALL: Self;

    /// The word with only bit `k` set. `k < BITS`.
    fn bit(k: usize) -> Self;

    /// Number of set bits.
    fn count_ones(self) -> u32;

    /// Little-endian `u64` limbs, upper limbs zero for narrow words.
    fn limbs(self) -> [u64; LIMBS];

    /// `self == ZERO` (named to avoid clashing with inherent methods).
    #[inline]
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }

    /// Whether bit `k` is set.
    #[inline]
    fn test(self, k: usize) -> bool {
        self & Self::bit(k) != Self::ZERO
    }
}

impl Word for u64 {
    const BITS: u32 = 64;
    const ZERO: u64 = 0;
    const LSB: u64 = 1;
    const ALL: u64 = !0;

    #[inline]
    fn bit(k: usize) -> u64 {
        1u64 << k
    }

    #[inline]
    fn count_ones(self) -> u32 {
        u64::count_ones(self)
    }

    #[inline]
    fn limbs(self) -> [u64; LIMBS] {
        [self, 0, 0, 0]
    }
}

impl Word for u128 {
    const BITS: u32 = 128;
    const ZERO: u128 = 0;
    const LSB: u128 = 1;
    const ALL: u128 = !0;

    #[inline]
    fn bit(k: usize) -> u128 {
        1u128 << k
    }

    #[inline]
    fn count_ones(self) -> u32 {
        u128::count_ones(self)
    }

    #[inline]
    fn limbs(self) -> [u64; LIMBS] {
        [self as u64, (self >> 64) as u64, 0, 0]
    }
}

/// A 256-bit lane as four `u64` limbs, little-endian.
///
/// Stand-in for the `std::simd::u64x4` lane: `std::simd` is still
/// nightly-only, so on the stable toolchain this crate builds with, the
/// lane is a plain limb array. On x86-64 hosts with AVX2, the bitwise
/// ops route through `std::arch` 256-bit intrinsics behind a one-time
/// runtime feature probe (`is_x86_feature_detected!`, cached by std);
/// everywhere else — and on pre-AVX2 x86-64 — the scalar limb loop
/// runs, producing identical bits. The memory layout and the [`Word`]
/// surface are exactly what the portable-SIMD version would expose, so
/// swapping the internals later is local to this type.
#[cfg(feature = "w256")]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct W256(pub(crate) [u64; 4]);

#[cfg(feature = "w256")]
mod w256_impl {
    use super::{Word, LIMBS, W256};
    use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, Not};

    /// AVX2 backends for the lanewise ops. Each function is compiled
    /// with the `avx2` target feature and is only reachable through the
    /// runtime-detected dispatch below, so the crate's baseline target
    /// stays plain x86-64 (or any other architecture).
    #[cfg(all(target_arch = "x86_64", feature = "w256"))]
    pub(super) mod avx2 {
        use super::W256;
        use std::arch::x86_64::{
            __m256i, _mm256_and_si256, _mm256_loadu_si256, _mm256_or_si256, _mm256_set1_epi64x,
            _mm256_storeu_si256, _mm256_xor_si256,
        };

        /// Whether the running CPU has AVX2. `is_x86_feature_detected!`
        /// caches the CPUID probe in `std`, so this is a load after the
        /// first call.
        #[inline]
        pub(in crate::word) fn available() -> bool {
            is_x86_feature_detected!("avx2")
        }

        macro_rules! avx2_binop {
            ($name:ident, $intrin:ident) => {
                /// # Safety
                /// The caller must have verified AVX2 support (see
                /// [`available`]).
                #[target_feature(enable = "avx2")]
                pub(in crate::word) unsafe fn $name(a: W256, b: W256) -> W256 {
                    // Unaligned loads: `W256` is a plain `[u64; 4]`
                    // with 8-byte alignment.
                    let va = _mm256_loadu_si256(a.0.as_ptr() as *const __m256i);
                    let vb = _mm256_loadu_si256(b.0.as_ptr() as *const __m256i);
                    let mut out = W256([0; 4]);
                    _mm256_storeu_si256(out.0.as_mut_ptr() as *mut __m256i, $intrin(va, vb));
                    out
                }
            };
        }

        avx2_binop!(bitand, _mm256_and_si256);
        avx2_binop!(bitor, _mm256_or_si256);
        avx2_binop!(bitxor, _mm256_xor_si256);

        /// # Safety
        /// The caller must have verified AVX2 support (see [`available`]).
        #[target_feature(enable = "avx2")]
        pub(in crate::word) unsafe fn not(a: W256) -> W256 {
            let va = _mm256_loadu_si256(a.0.as_ptr() as *const __m256i);
            let mut out = W256([0; 4]);
            _mm256_storeu_si256(
                out.0.as_mut_ptr() as *mut __m256i,
                _mm256_xor_si256(va, _mm256_set1_epi64x(-1)),
            );
            out
        }
    }

    macro_rules! lanewise {
        ($trait:ident, $method:ident, $op:tt, $scalar:ident) => {
            /// The scalar limb loop — the only implementation off
            /// x86-64, the pre-AVX2 fallback on it, and the oracle the
            /// SIMD path is differentially tested against.
            #[inline]
            pub(super) fn $scalar(a: W256, b: W256) -> W256 {
                W256([
                    a.0[0] $op b.0[0],
                    a.0[1] $op b.0[1],
                    a.0[2] $op b.0[2],
                    a.0[3] $op b.0[3],
                ])
            }

            impl $trait for W256 {
                type Output = W256;
                #[inline]
                fn $method(self, rhs: W256) -> W256 {
                    #[cfg(target_arch = "x86_64")]
                    if avx2::available() {
                        // SAFETY: AVX2 support verified at runtime.
                        return unsafe { avx2::$method(self, rhs) };
                    }
                    $scalar(self, rhs)
                }
            }
        };
    }

    lanewise!(BitAnd, bitand, &, scalar_and);
    lanewise!(BitOr, bitor, |, scalar_or);
    lanewise!(BitXor, bitxor, ^, scalar_xor);

    /// Scalar complement (see the lanewise scalar ops).
    #[inline]
    pub(super) fn scalar_not(a: W256) -> W256 {
        W256([!a.0[0], !a.0[1], !a.0[2], !a.0[3]])
    }

    impl Not for W256 {
        type Output = W256;
        #[inline]
        fn not(self) -> W256 {
            #[cfg(target_arch = "x86_64")]
            if avx2::available() {
                // SAFETY: AVX2 support verified at runtime.
                return unsafe { avx2::not(self) };
            }
            scalar_not(self)
        }
    }

    impl BitAndAssign for W256 {
        #[inline]
        fn bitand_assign(&mut self, rhs: W256) {
            *self = *self & rhs;
        }
    }

    impl BitOrAssign for W256 {
        #[inline]
        fn bitor_assign(&mut self, rhs: W256) {
            *self = *self | rhs;
        }
    }

    impl Word for W256 {
        const BITS: u32 = 256;
        const ZERO: W256 = W256([0; 4]);
        const LSB: W256 = W256([1, 0, 0, 0]);
        const ALL: W256 = W256([!0; 4]);

        #[inline]
        fn bit(k: usize) -> W256 {
            let mut w = [0u64; 4];
            w[k / 64] = 1u64 << (k % 64);
            W256(w)
        }

        #[inline]
        fn count_ones(self) -> u32 {
            self.0.iter().map(|l| l.count_ones()).sum()
        }

        #[inline]
        fn limbs(self) -> [u64; LIMBS] {
            self.0
        }
    }
}

/// Runtime selection of the plane word width.
///
/// `W64` is the default and matches the original hard-coded kernels
/// bit-for-bit. Wider lanes pack more faulty machines per batch
/// (127 / 255 instead of 63) at the same per-cycle gate-evaluation
/// cost, trading per-word ALU width for batch count. Detections,
/// detection times and every deterministic counter are width-invariant;
/// only batch partitioning (and therefore effort-space figures such as
/// `sim.batches`) changes. The width is deliberately excluded from the
/// checkpoint config hash, so checkpoints are width-portable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum WordWidth {
    /// 64-bit planes: 63 faulty machines per batch.
    #[default]
    W64,
    /// 128-bit planes: 127 faulty machines per batch.
    W128,
    /// 256-bit planes: 255 faulty machines per batch
    /// (requires the `w256` feature).
    #[cfg(feature = "w256")]
    W256,
}

impl WordWidth {
    /// Width in bits, for reporting.
    pub fn bits(self) -> u32 {
        match self {
            WordWidth::W64 => 64,
            WordWidth::W128 => 128,
            #[cfg(feature = "w256")]
            WordWidth::W256 => 256,
        }
    }

    /// Faulty machines per batch at this width (`bits - 1`).
    pub fn lanes(self) -> usize {
        self.bits() as usize - 1
    }

    /// Parses `"64"`, `"128"` or `"256"`. The 256-bit lane is only
    /// available when the `w256` feature is compiled in.
    pub fn parse(s: &str) -> Result<WordWidth, String> {
        match s {
            "64" => Ok(WordWidth::W64),
            "128" => Ok(WordWidth::W128),
            #[cfg(feature = "w256")]
            "256" => Ok(WordWidth::W256),
            #[cfg(not(feature = "w256"))]
            "256" => Err(
                "--word-width 256 requires the `w256` feature (build with --features w256)"
                    .to_string(),
            ),
            other => Err(format!(
                "unsupported word width {other:?}: expected 64, 128 or 256"
            )),
        }
    }
}

/// Expands `$body` once per compiled-in word width, with `$W` bound to
/// the concrete lane type matching `$width`. This is the single
/// dispatch point between the runtime [`WordWidth`] selection and the
/// monomorphized generic engines.
macro_rules! with_word {
    ($width:expr, $W:ident => $body:expr) => {
        match $width {
            $crate::word::WordWidth::W64 => {
                type $W = u64;
                $body
            }
            $crate::word::WordWidth::W128 => {
                type $W = u128;
                $body
            }
            #[cfg(feature = "w256")]
            $crate::word::WordWidth::W256 => {
                type $W = $crate::word::W256;
                $body
            }
        }
    };
}

pub(crate) use with_word;

#[cfg(test)]
mod tests {
    use super::*;

    // `b & b` / `b ^ b` are the point: the contract pins idempotence
    // and self-cancellation for every implementation.
    #[allow(clippy::eq_op)]
    fn word_contract<W: Word>() {
        assert_eq!(W::ZERO.count_ones(), 0);
        assert_eq!(W::ALL.count_ones(), W::BITS);
        assert_eq!(W::LSB, W::bit(0));
        assert!(W::LSB.test(0));
        assert!(W::ZERO.is_zero());
        for k in [0usize, 1, (W::BITS - 1) as usize] {
            let b = W::bit(k);
            assert_eq!(b.count_ones(), 1);
            assert!(b.test(k));
            assert!(!(!b).test(k));
            assert_eq!(b & b, b);
            assert_eq!(b | W::ZERO, b);
            assert_eq!(b ^ b, W::ZERO);
        }
        // Limb export round-trips single bits.
        let hi = W::bit((W::BITS - 1) as usize).limbs();
        let total: u32 = hi.iter().map(|l| l.count_ones()).sum();
        assert_eq!(total, 1);
        assert_eq!(hi[(W::BITS as usize - 1) / 64] >> ((W::BITS - 1) % 64), 1);
    }

    #[test]
    fn words_satisfy_the_contract() {
        word_contract::<u64>();
        word_contract::<u128>();
        #[cfg(feature = "w256")]
        word_contract::<W256>();
    }

    /// On AVX2 hosts the operator side of each assertion runs the
    /// `std::arch` intrinsic path while the right side runs the scalar
    /// limb loop; elsewhere both run the scalar loop and the assertions
    /// are tautologies — runtime dispatch means one binary covers both.
    #[cfg(feature = "w256")]
    #[test]
    fn w256_simd_path_matches_the_scalar_oracle() {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..256 {
            let a = W256([next(), next(), next(), next()]);
            let b = W256([next(), next(), next(), next()]);
            assert_eq!(a & b, w256_impl::scalar_and(a, b));
            assert_eq!(a | b, w256_impl::scalar_or(a, b));
            assert_eq!(a ^ b, w256_impl::scalar_xor(a, b));
            assert_eq!(!a, w256_impl::scalar_not(a));
        }
        // Compound assignment rides the same dispatch.
        let a = W256([next(), next(), next(), next()]);
        let b = W256([next(), next(), next(), next()]);
        let (mut x, mut y) = (a, a);
        x &= b;
        y |= b;
        assert_eq!(x, w256_impl::scalar_and(a, b));
        assert_eq!(y, w256_impl::scalar_or(a, b));
    }

    #[test]
    fn width_reports_bits_and_lanes() {
        assert_eq!(WordWidth::W64.bits(), 64);
        assert_eq!(WordWidth::W64.lanes(), 63);
        assert_eq!(WordWidth::W128.bits(), 128);
        assert_eq!(WordWidth::W128.lanes(), 127);
        assert_eq!(WordWidth::parse("64"), Ok(WordWidth::W64));
        assert_eq!(WordWidth::parse("128"), Ok(WordWidth::W128));
        assert!(WordWidth::parse("32").is_err());
        #[cfg(feature = "w256")]
        {
            assert_eq!(WordWidth::parse("256"), Ok(WordWidth::W256));
            assert_eq!(WordWidth::W256.lanes(), 255);
        }
        #[cfg(not(feature = "w256"))]
        assert!(WordWidth::parse("256").is_err());
    }
}
