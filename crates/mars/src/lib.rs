//! # difi-mars
//!
//! **MarsSim** — the MARSS-flavoured out-of-order x86e simulator — and
//! **MaFIN**, the MARSS-based fault injector built on it.
//!
//! MarsSim reproduces the MARSS properties the paper's differential analysis
//! rests on (Table II column 1, plus the behaviours of Remarks 1, 3, 6, 8):
//!
//! * OoO pipeline, 64-entry ROB, 32-entry issue queue, **32-entry unified
//!   LSQ whose loads and stores both hold data**;
//! * 256 integer + 256 FP physical registers;
//! * **aggressive load issue** before older store addresses resolve, with
//!   alias replay;
//! * **QEMU-style hypervisor escape**: kernel services bypass the caches;
//!   committed stores keep main memory coherent (store-through);
//! * tournament predictor whose chooser is bound to the **branch address**;
//!   split 4-way BTBs (1K direct + 512 indirect); 16-entry RAS;
//! * next-line **prefetchers** on L1I and L1D (the paper's added
//!   components, Table IV "New");
//! * **assertion-rich** model code: undecodable bytes and impossible
//!   internal states stop the simulation with an assertion, wrong-path or
//!   not.
//!
//! MaFIN is data only: its name, its ISA and [`mars_config`], exposed as a
//! [`CoreSpec`] through [`CoreBacked`]. `difi-core` implements the whole
//! [`InjectorDispatcher`](difi_core::InjectorDispatcher) once for every
//! `CoreBacked` injector, so GeFIN runs the very same dispatcher code.
//!
//! ```
//! use difi_mars::MaFin;
//! use difi_core::{InjectorDispatcher, InjectionSpec, RunLimits};
//! use difi_isa::asm::Asm;
//! use difi_isa::program::Isa;
//!
//! # fn main() -> Result<(), difi_util::Error> {
//! let mut a = Asm::new(Isa::X86e);
//! a.li(4, 7);
//! a.write_int(4);
//! a.exit(0);
//! let prog = a.finish("seven")?;
//! let mafin = MaFin::new();
//! let golden = mafin.run(&prog, &InjectionSpec::fault_free(0),
//!                        &RunLimits::golden(1_000_000));
//! assert_eq!(golden.output, b"7\n");
//! # Ok(())
//! # }
//! ```

use difi_core::{CoreBacked, CoreSpec};
use difi_isa::program::{Isa, Program};
use difi_uarch::cache::CacheConfig;
use difi_uarch::pipeline::{BtbOrg, CoreConfig, CorePolicy, LsqOrg, OoOCore};
use difi_uarch::predictor::TournamentConfig;

/// The MarsSim core configuration (Table II, MARSS/x86 column).
pub fn mars_config() -> CoreConfig {
    CoreConfig {
        int_prf: 256,
        fp_prf: 256,
        iq_entries: 32,
        rob_entries: 64,
        lsq: LsqOrg::Unified { entries: 32 },
        width: 4,
        fetch_bytes: 16,
        int_alus: 2,
        mul_div_units: 1,
        fp_units: 2,
        mem_ports: 4,
        ras_depth: 16,
        predictor: TournamentConfig::MARSS,
        btb: BtbOrg::MarssSplit,
        l1i: CacheConfig::L1,
        l1d: CacheConfig::L1,
        l2: CacheConfig::L2,
        policy: CorePolicy {
            aggressive_loads: true,
            hypervisor_kernel: true,
            store_through: true,
            decode_fault_asserts: true,
            payload_error_asserts: true,
            rich_asserts: true,
            prefetchers: true,
            model_cache_data: true,
        },
    }
}

/// MarsSim as *original* MARSS: no modeled cache data arrays (loads read
/// the QEMU-coherent main memory) and no added prefetchers. The baseline of
/// the EXP-OVH comparison — the paper reports the data-array extension cost
/// ≈40% of simulation throughput (§III.C).
pub fn perf_only_config() -> CoreConfig {
    let mut c = mars_config();
    c.policy.prefetchers = false;
    c.policy.model_cache_data = false;
    c
}

/// **MaFIN** — the MARSS-based fault injector dispatcher: MarsSim's
/// [`CoreSpec`], dispatched by `difi-core`'s shared [`CoreBacked`]
/// implementation.
#[derive(Debug, Clone)]
pub struct MaFin {
    core: CoreSpec,
}

impl MaFin {
    /// A MaFIN over the paper's MarsSim configuration.
    pub fn new() -> MaFin {
        MaFin {
            core: CoreSpec {
                name: "MaFIN-x86",
                isa: Isa::X86e,
                cfg: mars_config(),
            },
        }
    }

    /// Boots a fresh MarsSim instance for one run (exposed for diagnostics
    /// and the runtime-statistics studies behind Remarks 1–11).
    pub fn boot(&self, program: &Program) -> OoOCore {
        OoOCore::new(self.core.cfg, program)
    }
}

impl Default for MaFin {
    fn default() -> Self {
        MaFin::new()
    }
}

impl CoreBacked for MaFin {
    fn core_spec(&self) -> &CoreSpec {
        &self.core
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use difi_core::InjectorDispatcher;
    use difi_uarch::fault::StructureId;

    #[test]
    fn config_matches_table_ii() {
        let c = mars_config();
        assert_eq!(c.int_prf, 256);
        assert_eq!(c.fp_prf, 256);
        assert_eq!(c.iq_entries, 32);
        assert_eq!(c.rob_entries, 64);
        assert_eq!(c.lsq, LsqOrg::Unified { entries: 32 });
        assert_eq!(c.l1d.capacity(), 32 * 1024);
        assert_eq!(c.l2.capacity(), 1024 * 1024);
        assert!(c.policy.hypervisor_kernel);
        assert!(c.policy.aggressive_loads);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn structures_cover_table_iv() {
        let m = MaFin::new();
        let s = m.structures();
        let find = |id| s.iter().find(|d| d.id == id).copied();
        let lsq = find(StructureId::LsqData).unwrap();
        assert_eq!(lsq.entries, 32, "unified queue exposes 32 data entries");
        let rf = find(StructureId::IntRegFile).unwrap();
        assert_eq!(rf.total_bits(), 256 * 64);
        let l1d = find(StructureId::L1dData).unwrap();
        assert_eq!(l1d.total_bits(), 32 * 1024 * 8);
        let btb = find(StructureId::Btb).unwrap();
        assert_eq!(btb.entries, 1024 + 512, "1K direct + 512 indirect entries");
        assert!(find(StructureId::L1iData).is_some());
        assert!(find(StructureId::DtlbValid).is_some());
    }

    #[test]
    fn dispatcher_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<MaFin>();
    }
}
