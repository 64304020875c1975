//! The [`AddressMapping`] trait and the boot-time default mapping.

use sdam_hbm::HardwareAddr;

use crate::PhysAddr;

/// A PA→HA address mapping.
///
/// Implementations must be bijections on the address space they cover
/// (the paper's functional-correctness requirement, §4): no two
/// in-range physical addresses may map to the same hardware address.
/// Only the PA→HA direction is modelled, as in the hardware; the tests
/// check the rule through each family's own inverse (a permutation's
/// [`crate::BitPermutation::invert`], the XOR hash being its own
/// inverse). The trait is object-safe.
pub trait AddressMapping: std::fmt::Debug + Send + Sync {
    /// Maps a physical address to a hardware address.
    fn map(&self, pa: PhysAddr) -> HardwareAddr;

    /// Maps a block of raw physical addresses to raw hardware addresses
    /// in place.
    ///
    /// The default loops [`AddressMapping::map`]; mappings with
    /// hoistable per-call setup (window masks, LUT bases) override it.
    /// Overrides must stay bit-identical to the per-address path —
    /// batched simulation relies on it.
    fn map_block(&self, addrs: &mut [u64]) {
        for a in addrs.iter_mut() {
            *a = self.map(PhysAddr(*a)).0;
        }
    }

    /// A short human-readable name ("DM", "BSM", "HM", ...).
    fn name(&self) -> &str;
}

/// The boot-time default mapping: PA bits pass straight through to HA.
///
/// With [`sdam_hbm::Geometry`]'s field layout (channel bits immediately
/// above the line offset) this is the channel-interleaving default of
/// commercial controllers and of the Xilinx HBM IP the paper's baseline
/// ("BS+DM") uses: perfect for streaming, catastrophic for large strides.
///
/// # Example
///
/// ```
/// use sdam_mapping::{AddressMapping, IdentityMapping, PhysAddr};
///
/// let dm = IdentityMapping;
/// assert_eq!(dm.map(PhysAddr(0x1234)).raw(), 0x1234);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IdentityMapping;

impl AddressMapping for IdentityMapping {
    fn map(&self, pa: PhysAddr) -> HardwareAddr {
        HardwareAddr(pa.0)
    }

    fn map_block(&self, _addrs: &mut [u64]) {}

    fn name(&self) -> &str {
        "DM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_passes_every_bit_through() {
        let m = IdentityMapping;
        for a in [0u64, 1, 0xffff_ffff, 1 << 32] {
            assert_eq!(m.map(PhysAddr(a)).raw(), a);
        }
        assert_eq!(m.name(), "DM");
    }

    #[test]
    fn trait_is_object_safe() {
        let m: Box<dyn AddressMapping> = Box::new(IdentityMapping);
        assert_eq!(m.map(PhysAddr(7)).raw(), 7);
    }

    #[test]
    fn identity_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IdentityMapping>();
        assert_send_sync::<Box<dyn AddressMapping>>();
    }
}
