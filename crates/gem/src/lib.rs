//! # difi-gem
//!
//! **GemSim** — the gem5-flavoured out-of-order simulator for x86e *and*
//! arme — and **GeFIN**, the gem5-based fault injector built on it.
//!
//! GemSim reproduces the gem5 properties the paper's differential analysis
//! rests on (Table II columns 2–3, plus the behaviours of Remarks 1, 3, 6,
//! 8):
//!
//! * OoO pipeline, 40-entry ROB, 32-entry issue queue, **split 16/16
//!   load/store queues where only the store queue holds data**;
//! * 256 integer + 128 FP physical registers;
//! * **conservative load issue**: loads wait for all older store addresses;
//! * the whole system handled internally — kernel accesses travel **through
//!   the cache hierarchy**; strict write-back memory (a dirty line is the
//!   only copy);
//! * tournament predictor whose chooser (and global component) are indexed
//!   purely by the **global history**; one direct-mapped 2K-entry BTB;
//! * **compact checking**: undecodable bytes become ISA faults raised at
//!   commit (squashed on the wrong path) and internal anomalies surface as
//!   simulator crashes rather than assertions.
//!
//! Per-ISA functional units follow Table II: the x86 model is wide (6 int
//! ALUs, 4 FP), the ARM model narrow (2 int ALUs, 2 FP).
//!
//! GeFIN is data only: its name, its ISA and [`gem_config`] for that ISA,
//! exposed as a [`CoreSpec`] through [`CoreBacked`]. `difi-core` implements
//! the whole [`InjectorDispatcher`](difi_core::InjectorDispatcher) once for
//! every `CoreBacked` injector, so MaFIN runs the very same dispatcher code.
//!
//! ```
//! use difi_gem::GeFin;
//! use difi_core::{InjectorDispatcher, InjectionSpec, RunLimits};
//! use difi_isa::asm::Asm;
//! use difi_isa::program::Isa;
//!
//! # fn main() -> Result<(), difi_util::Error> {
//! let mut a = Asm::new(Isa::Arme);
//! a.li(4, 11);
//! a.write_int(4);
//! a.exit(0);
//! let prog = a.finish("eleven")?;
//! let gefin = GeFin::arm();
//! let golden = gefin.run(&prog, &InjectionSpec::fault_free(0),
//!                        &RunLimits::golden(1_000_000));
//! assert_eq!(golden.output, b"11\n");
//! # Ok(())
//! # }
//! ```

use difi_core::{CoreBacked, CoreSpec};
use difi_isa::program::{Isa, Program};
use difi_uarch::cache::CacheConfig;
use difi_uarch::pipeline::{BtbOrg, CoreConfig, CorePolicy, LsqOrg, OoOCore};
use difi_uarch::predictor::TournamentConfig;

/// The GemSim core configuration for one ISA (Table II, gem5 columns).
pub fn gem_config(isa: Isa) -> CoreConfig {
    let (int_alus, mul_div, fp_units) = match isa {
        // gem5/x86: 6 int ALUs, 2 complex int, 4 FP (+ SIMD, unmodeled).
        Isa::X86e => (6, 2, 4),
        // gem5/ARM: 2 int ALUs, 1 complex int, 2 FP & SIMD.
        Isa::Arme => (2, 1, 2),
    };
    CoreConfig {
        int_prf: 256,
        fp_prf: 128,
        iq_entries: 32,
        rob_entries: 40,
        lsq: LsqOrg::Split {
            loads: 16,
            stores: 16,
        },
        width: 4,
        fetch_bytes: 16,
        int_alus,
        mul_div_units: mul_div,
        fp_units,
        mem_ports: 2,
        ras_depth: 16,
        predictor: TournamentConfig::GEM5,
        btb: BtbOrg::Gem5Unified,
        l1i: CacheConfig::L1,
        l1d: CacheConfig::L1,
        l2: CacheConfig::L2,
        policy: CorePolicy {
            aggressive_loads: false,
            hypervisor_kernel: false,
            store_through: false,
            decode_fault_asserts: false,
            payload_error_asserts: false,
            rich_asserts: false,
            prefetchers: false,
            model_cache_data: true,
        },
    }
}

/// **GeFIN** — the gem5-based fault injector dispatcher for one ISA:
/// GemSim's [`CoreSpec`], dispatched by `difi-core`'s shared
/// [`CoreBacked`] implementation.
#[derive(Debug, Clone)]
pub struct GeFin {
    core: CoreSpec,
}

impl GeFin {
    /// GeFIN over the gem5/x86 configuration.
    pub fn x86() -> GeFin {
        GeFin::for_isa("GeFIN-x86", Isa::X86e)
    }

    /// GeFIN over the gem5/ARM configuration.
    pub fn arm() -> GeFin {
        GeFin::for_isa("GeFIN-ARM", Isa::Arme)
    }

    fn for_isa(name: &'static str, isa: Isa) -> GeFin {
        GeFin {
            core: CoreSpec {
                name,
                isa,
                cfg: gem_config(isa),
            },
        }
    }

    /// Boots a fresh GemSim instance for one run.
    pub fn boot(&self, program: &Program) -> OoOCore {
        OoOCore::new(self.core.cfg, program)
    }
}

impl CoreBacked for GeFin {
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
    fn configs_match_table_ii() {
        let x = gem_config(Isa::X86e);
        assert_eq!(x.int_prf, 256);
        assert_eq!(x.fp_prf, 128);
        assert_eq!(x.rob_entries, 40);
        assert_eq!(
            x.lsq,
            LsqOrg::Split {
                loads: 16,
                stores: 16
            }
        );
        assert_eq!(x.int_alus, 6);
        let a = gem_config(Isa::Arme);
        assert_eq!(a.int_alus, 2);
        assert_eq!(a.fp_units, 2);
        assert!(!a.policy.aggressive_loads);
        assert!(!a.policy.hypervisor_kernel);
        assert!(x.validate().is_ok() && a.validate().is_ok());
    }

    #[test]
    fn lsq_data_plane_is_store_queue_only() {
        let g = GeFin::x86();
        let s = g.structures();
        let lsq = s.iter().find(|d| d.id == StructureId::LsqData).unwrap();
        assert_eq!(
            lsq.entries, 16,
            "only the 16-entry store queue holds data (Remark 1)"
        );
        let btb = s.iter().find(|d| d.id == StructureId::Btb).unwrap();
        assert_eq!(btb.entries, 2048, "direct-mapped 2K unified BTB");
        let fp = s.iter().find(|d| d.id == StructureId::FpRegFile).unwrap();
        assert_eq!(fp.entries, 128);
    }

    #[test]
    fn names_and_isas() {
        assert_eq!(GeFin::x86().name(), "GeFIN-x86");
        assert_eq!(GeFin::arm().name(), "GeFIN-ARM");
        assert_eq!(GeFin::arm().isa(), Isa::Arme);
    }
}
