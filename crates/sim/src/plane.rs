//! The two-bit-plane encoding of 64 three-valued machines.
//!
//! One [`Planes`] word pair holds the value of a single net in 64
//! machines at once: bit `b` of `ones` set means machine `b` sees
//! logic 1, bit `b` of `zeros` means logic 0, and neither means `X`.
//! Machine 0 is by convention the fault-free machine; machines `1..64`
//! carry faults. Both the reference kernel and the compiled
//! cone-restricted kernel (see [`crate::compiled`]) operate on this
//! representation, so moving a batch between them is a no-op.

/// Faulty machines per plane word: bits `1..64`.
pub(crate) const FAULTS_PER_BATCH: usize = 63;

/// Two bit-planes encoding one net's value in 64 machines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Planes {
    pub(crate) ones: u64,
    pub(crate) zeros: u64,
}

impl Planes {
    pub(crate) const ALL_ONE: Planes = Planes { ones: !0, zeros: 0 };
    pub(crate) const ALL_ZERO: Planes = Planes { ones: 0, zeros: !0 };
    pub(crate) const ALL_X: Planes = Planes { ones: 0, zeros: 0 };
    /// The broadcast of a two-bit code, ones bit in bit 0 and zeros bit
    /// in bit 1: `X`, 1, 0, and 1 again when both are set.
    pub(crate) const BY_CODE: [Planes; 4] = [
        Planes::ALL_X,
        Planes::ALL_ONE,
        Planes::ALL_ZERO,
        Planes::ALL_ONE,
    ];

    #[inline]
    pub(crate) fn broadcast(v: bool) -> Planes {
        if v {
            Planes::ALL_ONE
        } else {
            Planes::ALL_ZERO
        }
    }

    #[inline]
    pub(crate) fn and(self, rhs: Planes) -> Planes {
        Planes {
            ones: self.ones & rhs.ones,
            zeros: self.zeros | rhs.zeros,
        }
    }

    #[inline]
    pub(crate) fn or(self, rhs: Planes) -> Planes {
        Planes {
            ones: self.ones | rhs.ones,
            zeros: self.zeros & rhs.zeros,
        }
    }

    #[inline]
    pub(crate) fn xor(self, rhs: Planes) -> Planes {
        Planes {
            ones: (self.ones & rhs.zeros) | (self.zeros & rhs.ones),
            zeros: (self.ones & rhs.ones) | (self.zeros & rhs.zeros),
        }
    }

    #[inline]
    pub(crate) fn not(self) -> Planes {
        Planes {
            ones: self.zeros,
            zeros: self.ones,
        }
    }

    /// Forces bits: machines in `f1` to 1, machines in `f0` to 0.
    #[inline]
    pub(crate) fn inject(self, f1: u64, f0: u64) -> Planes {
        Planes {
            ones: (self.ones & !f0) | f1,
            zeros: (self.zeros & !f1) | f0,
        }
    }

    /// Machines whose value is binary and differs from the fault-free
    /// machine (bit 0). Returns 0 when the fault-free value is `X`.
    #[inline]
    pub(crate) fn diff_from_good(self) -> u64 {
        if self.ones & 1 != 0 {
            self.zeros & !1
        } else if self.zeros & 1 != 0 {
            self.ones & !1
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_algebra_holds() {
        let bit = |k: u32| 1u64 << k;
        // inject forces bits
        let x = Planes::ALL_X.inject(bit(1), bit(2));
        assert_eq!(x.ones, bit(1));
        assert_eq!(x.zeros, bit(2));
        let one = Planes::ALL_ONE.inject(0, bit(3));
        assert_eq!(one.ones, !bit(3));
        assert_eq!(one.zeros, bit(3));

        // diff needs a binary good value
        assert_eq!(Planes::ALL_X.diff_from_good(), 0);
        // Good machine 1, machine 3 at 0.
        let p = Planes {
            ones: 1,
            zeros: bit(3),
        };
        assert_eq!(p.diff_from_good(), bit(3));
        // Good machine 0, machine 1 at 1 — also on the highest bit.
        let hi = u64::BITS - 1;
        let p = Planes {
            ones: bit(1) | bit(hi),
            zeros: 1,
        };
        assert_eq!(p.diff_from_good(), bit(1) | bit(hi));

        // De Morgan
        let a = Planes {
            ones: bit(1) | bit(2) | bit(hi),
            zeros: 1 | bit(3),
        };
        let b = Planes {
            ones: 1 | bit(1),
            zeros: bit(2) | bit(hi),
        };
        assert_eq!(a.and(b).not(), a.not().or(b.not()));
        assert_eq!(a.or(b).not(), a.not().and(b.not()));
    }
}
