//! The two-bit-plane encoding of `W::BITS` three-valued machines.
//!
//! One [`Planes`] word pair holds the value of a single net in
//! `W::BITS` machines at once: bit `b` of `ones` set means machine `b`
//! sees logic 1, bit `b` of `zeros` means logic 0, and neither means
//! `X`. Machine 0 is by convention the fault-free machine; machines
//! `1..W::BITS` carry faults. Both the reference kernel and the
//! compiled cone-restricted kernel (see [`crate::compiled`]) operate on
//! this representation at any lane width (see [`crate::word::Word`]),
//! so moving a batch between them is a no-op.

use crate::word::Word;

/// Two bit-planes encoding one net's value in `W::BITS` machines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Planes<W> {
    pub(crate) ones: W,
    pub(crate) zeros: W,
}

impl<W: Word> Planes<W> {
    pub(crate) const ALL_ONE: Planes<W> = Planes {
        ones: W::ALL,
        zeros: W::ZERO,
    };
    pub(crate) const ALL_ZERO: Planes<W> = Planes {
        ones: W::ZERO,
        zeros: W::ALL,
    };
    pub(crate) const ALL_X: Planes<W> = Planes {
        ones: W::ZERO,
        zeros: W::ZERO,
    };
    /// The broadcast of a two-bit code, ones bit in bit 0 and zeros bit
    /// in bit 1: `X`, 1, 0, and 1 again when both are set.
    pub(crate) const BY_CODE: [Planes<W>; 4] = [
        Planes::ALL_X,
        Planes::ALL_ONE,
        Planes::ALL_ZERO,
        Planes::ALL_ONE,
    ];

    #[inline]
    pub(crate) fn broadcast(v: bool) -> Planes<W> {
        if v {
            Planes::ALL_ONE
        } else {
            Planes::ALL_ZERO
        }
    }

    #[inline]
    pub(crate) fn and(self, rhs: Planes<W>) -> Planes<W> {
        Planes {
            ones: self.ones & rhs.ones,
            zeros: self.zeros | rhs.zeros,
        }
    }

    #[inline]
    pub(crate) fn or(self, rhs: Planes<W>) -> Planes<W> {
        Planes {
            ones: self.ones | rhs.ones,
            zeros: self.zeros & rhs.zeros,
        }
    }

    #[inline]
    pub(crate) fn xor(self, rhs: Planes<W>) -> Planes<W> {
        Planes {
            ones: (self.ones & rhs.zeros) | (self.zeros & rhs.ones),
            zeros: (self.ones & rhs.ones) | (self.zeros & rhs.zeros),
        }
    }

    #[inline]
    pub(crate) fn not(self) -> Planes<W> {
        Planes {
            ones: self.zeros,
            zeros: self.ones,
        }
    }

    /// Forces bits: machines in `f1` to 1, machines in `f0` to 0.
    #[inline]
    pub(crate) fn inject(self, f1: W, f0: W) -> Planes<W> {
        Planes {
            ones: (self.ones & !f0) | f1,
            zeros: (self.zeros & !f1) | f0,
        }
    }

    /// Machines whose value is binary and differs from the fault-free
    /// machine (bit 0). Returns 0 when the fault-free value is `X`.
    #[inline]
    pub(crate) fn diff_from_good(self) -> W {
        if self.ones & W::LSB != W::ZERO {
            self.zeros & !W::LSB
        } else if self.zeros & W::LSB != W::ZERO {
            self.ones & !W::LSB
        } else {
            W::ZERO
        }
    }

    /// Width-erased limb export for debugging surfaces.
    #[inline]
    pub(crate) fn limbs(self) -> ([u64; crate::word::LIMBS], [u64; crate::word::LIMBS]) {
        (self.ones.limbs(), self.zeros.limbs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane_algebra<W: Word>() {
        // inject forces bits
        let x = Planes::<W>::ALL_X.inject(W::bit(1), W::bit(2));
        assert_eq!(x.ones, W::bit(1));
        assert_eq!(x.zeros, W::bit(2));
        let one = Planes::<W>::ALL_ONE.inject(W::ZERO, W::bit(3));
        assert_eq!(one.ones, !W::bit(3));
        assert_eq!(one.zeros, W::bit(3));

        // diff needs a binary good value
        assert_eq!(Planes::<W>::ALL_X.diff_from_good(), W::ZERO);
        // Good machine 1, machine 3 at 0.
        let p = Planes {
            ones: W::LSB,
            zeros: W::bit(3),
        };
        assert_eq!(p.diff_from_good(), W::bit(3));
        // Good machine 0, machine 1 at 1 — also on the highest lane.
        let hi = (W::BITS - 1) as usize;
        let p = Planes {
            ones: W::bit(1) | W::bit(hi),
            zeros: W::LSB,
        };
        assert_eq!(p.diff_from_good(), W::bit(1) | W::bit(hi));

        // De Morgan
        let a = Planes {
            ones: W::bit(1) | W::bit(2) | W::bit(hi),
            zeros: W::LSB | W::bit(3),
        };
        let b = Planes {
            ones: W::LSB | W::bit(1),
            zeros: W::bit(2) | W::bit(hi),
        };
        assert_eq!(a.and(b).not(), a.not().or(b.not()));
        assert_eq!(a.or(b).not(), a.not().and(b.not()));
    }

    #[test]
    fn plane_algebra_holds_at_every_width() {
        plane_algebra::<u64>();
        plane_algebra::<u128>();
        #[cfg(feature = "w256")]
        plane_algebra::<crate::word::W256>();
    }
}
