//! Named workload specifications mirroring the paper's Tables 2–5.
//!
//! Each specification pairs a [`Profile`] (perturbed from its
//! architecture's baseline to reflect the program's character — a Fortran
//! plotter sweeps arrays, a C compiler has a large code footprint, `qsort`
//! lives on the stack) with a fixed base seed, so every named trace is
//! reproducible. The per-architecture set functions return the exact trace
//! lists the paper's figures average over.

use crate::arch::Architecture;
use crate::generator::ProgramGenerator;
use crate::profile::Profile;

/// A named, reproducible synthetic trace: the stand-in for one of the
/// paper's trace tapes.
///
/// ```
/// use occache_trace::TraceSource;
/// use occache_workloads::WorkloadSpec;
///
/// let spec = WorkloadSpec::pdp11_ed();
/// assert_eq!(spec.name(), "ED");
/// let refs = spec.generator(0).collect_refs(1000);
/// assert_eq!(refs.len(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    name: &'static str,
    description: &'static str,
    profile: Profile,
    base_seed: u64,
}

impl WorkloadSpec {
    fn new(
        name: &'static str,
        description: &'static str,
        base_seed: u64,
        profile: Profile,
    ) -> Self {
        profile.validate();
        WorkloadSpec {
            name,
            description,
            profile,
            base_seed,
        }
    }

    /// Creates a custom named workload from an arbitrary profile — the
    /// escape hatch used by the special mixes (360/85, RISC II) and by
    /// user experiments.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`Profile::validate`].
    pub fn with_profile(
        name: &'static str,
        description: &'static str,
        base_seed: u64,
        profile: Profile,
    ) -> Self {
        WorkloadSpec::new(name, description, base_seed, profile)
    }

    /// Trace name as the paper prints it.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description from the paper's workload table.
    pub fn description(&self) -> &'static str {
        self.description
    }

    /// The architecture this trace belongs to.
    pub fn arch(&self) -> Architecture {
        self.profile.arch
    }

    /// The underlying locality profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Builds the deterministic reference stream; `seed` perturbs the base
    /// seed (pass 0 for the canonical trace).
    pub fn generator(&self, seed: u64) -> ProgramGenerator {
        ProgramGenerator::new(
            self.profile.clone(),
            self.base_seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(seed),
        )
    }

    // ------------------------------------------------------------------
    // PDP-11 workload (Table 2)
    // ------------------------------------------------------------------

    /// `OPSYS` — C, toy operating system.
    pub fn pdp11_opsys() -> WorkloadSpec {
        let mut p = Profile::baseline(Architecture::Pdp11);
        p.call_prob = 0.14;
        p.return_prob = 0.14;
        p.data_mix.globals *= 1.3;
        WorkloadSpec::new("OPSYS", "C: toy operating system", 0x11_01, p)
    }

    /// `PLOT` — Fortran, printer plotter program.
    pub fn pdp11_plot() -> WorkloadSpec {
        let mut p = Profile::baseline(Architecture::Pdp11);
        p.data_mix.sweep *= 1.5;
        p.loop_iters = 20.0;
        p.code_functions = 28;
        WorkloadSpec::new("PLOT", "Fortran: printer plotter program", 0x11_02, p)
    }

    /// `SIMP` — Fortran, pipeline simulation program.
    pub fn pdp11_simp() -> WorkloadSpec {
        let mut p = Profile::baseline(Architecture::Pdp11);
        p.loop_prob = 0.38;
        p.loop_iters = 18.0;
        p.data_mix.heap *= 1.2;
        WorkloadSpec::new("SIMP", "Fortran: pipeline simulation program", 0x11_03, p)
    }

    /// `TRACE` — PDP-11 assembly, tracing program tracing ED.
    pub fn pdp11_trace() -> WorkloadSpec {
        let mut p = Profile::baseline(Architecture::Pdp11);
        p.code_functions = 24;
        p.function_words = 128;
        p.loop_iters = 18.0;
        WorkloadSpec::new(
            "TRACE",
            "PDP-11 assembly: tracing program tracing ED",
            0x11_04,
            p,
        )
    }

    /// `ROFF` — PDP-11 assembly, text output and formatting program.
    pub fn pdp11_roff() -> WorkloadSpec {
        let mut p = Profile::baseline(Architecture::Pdp11);
        p.data_mix.sweep *= 1.3;
        p.mean_run = 7.0;
        WorkloadSpec::new(
            "ROFF",
            "PDP-11 assembly: text output and formatting",
            0x11_05,
            p,
        )
    }

    /// `ED` — C, text editor.
    pub fn pdp11_ed() -> WorkloadSpec {
        let p = Profile::baseline(Architecture::Pdp11);
        WorkloadSpec::new("ED", "C: text editor", 0x11_06, p)
    }

    // ------------------------------------------------------------------
    // Z8000 workload (Table 3)
    // ------------------------------------------------------------------

    /// `CPP` — C, first phase of the C compiler.
    pub fn z8000_cpp() -> WorkloadSpec {
        let mut p = Profile::baseline(Architecture::Z8000);
        p.code_functions = 30;
        p.function_words = 144;
        p.data_mix.sweep *= 1.4;
        WorkloadSpec::new("CPP", "C: first phase of C compiler", 0x80_01, p)
    }

    /// `C1` — C, second phase of the C compiler.
    pub fn z8000_c1() -> WorkloadSpec {
        let mut p = Profile::baseline(Architecture::Z8000);
        p.code_functions = 34;
        p.function_words = 152;
        p.data_mix.heap *= 1.4;
        WorkloadSpec::new("C1", "C: second phase of C compiler", 0x80_02, p)
    }

    /// `C2` — C, third phase of the C compiler.
    pub fn z8000_c2() -> WorkloadSpec {
        let mut p = Profile::baseline(Architecture::Z8000);
        p.code_functions = 28;
        p.function_words = 136;
        WorkloadSpec::new("C2", "C: third phase of C compiler", 0x80_03, p)
    }

    /// `OD` — C, Unix utility for dumping files in ASCII.
    pub fn z8000_od() -> WorkloadSpec {
        let mut p = Profile::baseline(Architecture::Z8000);
        p.code_functions = 12;
        p.data_mix.sweep *= 1.3;
        p.loop_iters = 28.0;
        WorkloadSpec::new(
            "OD",
            "C: Unix utility for dumping files in ASCII",
            0x80_04,
            p,
        )
    }

    /// `GREP` — C, Unix utility for string searching.
    pub fn z8000_grep() -> WorkloadSpec {
        let mut p = Profile::baseline(Architecture::Z8000);
        p.code_functions = 14;
        p.loop_iters = 26.0;
        p.data_mix.sweep *= 1.2;
        WorkloadSpec::new("GREP", "C: Unix utility for string searching", 0x80_05, p)
    }

    /// `SORT` — C, Unix utility for sorting.
    pub fn z8000_sort() -> WorkloadSpec {
        let mut p = Profile::baseline(Architecture::Z8000);
        p.code_functions = 16;
        p.data_mix.heap *= 1.3;
        p.call_prob = 0.12;
        p.return_prob = 0.12;
        WorkloadSpec::new("SORT", "C: Unix utility for sorting", 0x80_06, p)
    }

    /// `LS` — C, Unix utility for listing files.
    pub fn z8000_ls() -> WorkloadSpec {
        let mut p = Profile::baseline(Architecture::Z8000);
        p.code_functions = 14;
        p.data_mix.globals *= 1.2;
        WorkloadSpec::new("LS", "C: Unix utility for listing files", 0x80_07, p)
    }

    /// `NM` — C, Unix utility for printing a symbol table.
    pub fn z8000_nm() -> WorkloadSpec {
        let mut p = Profile::baseline(Architecture::Z8000);
        p.code_functions = 12;
        p.data_mix.sweep *= 1.1;
        WorkloadSpec::new(
            "NM",
            "C: Unix utility printing an object file's symbol table",
            0x80_08,
            p,
        )
    }

    /// `NROFF` — C, Unix utility for formatting text files.
    pub fn z8000_nroff() -> WorkloadSpec {
        let mut p = Profile::baseline(Architecture::Z8000);
        p.code_functions = 24;
        p.function_words = 128;
        WorkloadSpec::new(
            "NROFF",
            "C: Unix utility formatting text for printing",
            0x80_09,
            p,
        )
    }

    // ------------------------------------------------------------------
    // VAX-11 workload (Table 4)
    // ------------------------------------------------------------------

    /// `spice` — Fortran, circuit simulation.
    pub fn vax_spice() -> WorkloadSpec {
        let mut p = Profile::baseline(Architecture::Vax11);
        p.data_mix.sweep *= 1.4;
        p.data_mix.heap *= 1.2;
        p.loop_iters = 16.0;
        WorkloadSpec::new("spice", "Fortran: circuit simulation", 0x5a_01, p)
    }

    /// `otmdl` — Pascal, constructs an LR(0) parser.
    pub fn vax_otmdl() -> WorkloadSpec {
        let mut p = Profile::baseline(Architecture::Vax11);
        p.call_prob = 0.14;
        p.return_prob = 0.14;
        p.data_mix.heap *= 1.3;
        WorkloadSpec::new("otmdl", "Pascal: constructs LR(0) parser", 0x5a_02, p)
    }

    /// `sedx` — C, stream editor.
    pub fn vax_sedx() -> WorkloadSpec {
        let mut p = Profile::baseline(Architecture::Vax11);
        p.code_functions = 40;
        p.data_mix.sweep *= 1.2;
        WorkloadSpec::new("sedx", "C: stream editor", 0x5a_03, p)
    }

    /// `qsort` — C, quick sort.
    pub fn vax_qsort() -> WorkloadSpec {
        let mut p = Profile::baseline(Architecture::Vax11);
        p.code_functions = 16;
        p.function_words = 96;
        p.data_mix.stack *= 1.5;
        p.data_mix.heap *= 1.2;
        p.call_prob = 0.16;
        p.return_prob = 0.16;
        WorkloadSpec::new("qsort", "C: Quick sort", 0x5a_04, p)
    }

    /// `troff` — C, text formatter.
    pub fn vax_troff() -> WorkloadSpec {
        let mut p = Profile::baseline(Architecture::Vax11);
        p.code_functions = 96;
        p.function_words = 224;
        WorkloadSpec::new("troff", "C: text formatter", 0x5a_05, p)
    }

    /// `c2` — C, third phase of the C compiler.
    pub fn vax_c2() -> WorkloadSpec {
        let mut p = Profile::baseline(Architecture::Vax11);
        p.code_functions = 64;
        WorkloadSpec::new("c2", "C: third phase of C compiler", 0x5a_06, p)
    }

    // ------------------------------------------------------------------
    // IBM System/370 workload (Table 5)
    // ------------------------------------------------------------------

    /// `FGO1` — Fortran Go step, single-precision factor analysis.
    pub fn s370_fgo1() -> WorkloadSpec {
        let mut p = Profile::baseline(Architecture::S370);
        p.data_mix.sweep *= 1.2;
        p.loop_iters = 12.0;
        WorkloadSpec::new(
            "FGO1",
            "Fortran Go step: single-precision factor analysis",
            0x37_01,
            p,
        )
    }

    /// `FCOMP1` — Fortran compile of a PDE solver.
    pub fn s370_fcomp1() -> WorkloadSpec {
        let mut p = Profile::baseline(Architecture::S370);
        p.code_functions = 192;
        p.data_mix.sweep *= 0.8;
        p.data_mix.heap *= 1.2;
        WorkloadSpec::new(
            "FCOMP1",
            "Compile of a program solving Reynolds partial differential equation",
            0x37_02,
            p,
        )
    }

    /// `PGO1` — PL/I Go step.
    pub fn s370_pgo1() -> WorkloadSpec {
        let mut p = Profile::baseline(Architecture::S370);
        p.data_mix.heap *= 1.1;
        WorkloadSpec::new("PGO1", "PL/I Go step", 0x37_03, p)
    }

    /// `PGO2` — PL/I Go step, CCW analysis.
    pub fn s370_pgo2() -> WorkloadSpec {
        let mut p = Profile::baseline(Architecture::S370);
        p.data_mix.sweep *= 1.1;
        p.code_functions = 160;
        WorkloadSpec::new(
            "PGO2",
            "PL/I Go step: program does CCW analysis",
            0x37_04,
            p,
        )
    }

    // ------------------------------------------------------------------
    // Trace sets as the paper's figures use them
    // ------------------------------------------------------------------

    /// The six PDP-11 traces of Table 2 (Figures 1, 2, 7, 8).
    pub fn pdp11_set() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::pdp11_opsys(),
            WorkloadSpec::pdp11_plot(),
            WorkloadSpec::pdp11_simp(),
            WorkloadSpec::pdp11_trace(),
            WorkloadSpec::pdp11_roff(),
            WorkloadSpec::pdp11_ed(),
        ]
    }

    /// The last five Table 3 traces — the Unix utilities the Z8000 figures
    /// use (§4.2.2: "see last five traces in Table 3").
    pub fn z8000_set() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::z8000_grep(),
            WorkloadSpec::z8000_sort(),
            WorkloadSpec::z8000_ls(),
            WorkloadSpec::z8000_nm(),
            WorkloadSpec::z8000_nroff(),
        ]
    }

    /// All nine Z8000 traces of Table 3.
    pub fn z8000_full_set() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::z8000_cpp(),
            WorkloadSpec::z8000_c1(),
            WorkloadSpec::z8000_c2(),
            WorkloadSpec::z8000_od(),
            WorkloadSpec::z8000_grep(),
            WorkloadSpec::z8000_sort(),
            WorkloadSpec::z8000_ls(),
            WorkloadSpec::z8000_nm(),
            WorkloadSpec::z8000_nroff(),
        ]
    }

    /// The three compiler-phase traces the load-forward study uses
    /// (§4.4: "traces CPP, C1 and C2").
    pub fn z8000_load_forward_set() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::z8000_cpp(),
            WorkloadSpec::z8000_c1(),
            WorkloadSpec::z8000_c2(),
        ]
    }

    /// The six VAX-11 traces of Table 4 (Figure 5).
    pub fn vax11_set() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::vax_spice(),
            WorkloadSpec::vax_otmdl(),
            WorkloadSpec::vax_sedx(),
            WorkloadSpec::vax_qsort(),
            WorkloadSpec::vax_troff(),
            WorkloadSpec::vax_c2(),
        ]
    }

    /// The four System/370 traces of Table 5 (Figure 6).
    pub fn s370_set() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::s370_fgo1(),
            WorkloadSpec::s370_fcomp1(),
            WorkloadSpec::s370_pgo1(),
            WorkloadSpec::s370_pgo2(),
        ]
    }

    /// The trace set an architecture's main figures average over.
    pub fn set_for(arch: Architecture) -> Vec<WorkloadSpec> {
        match arch {
            Architecture::Pdp11 => WorkloadSpec::pdp11_set(),
            Architecture::Z8000 => WorkloadSpec::z8000_set(),
            Architecture::Vax11 => WorkloadSpec::vax11_set(),
            Architecture::S370 => WorkloadSpec::s370_set(),
        }
    }

    /// Every named trace of Tables 2–5 (all architectures).
    pub fn all_named() -> Vec<WorkloadSpec> {
        let mut all = WorkloadSpec::pdp11_set();
        all.extend(WorkloadSpec::z8000_full_set());
        all.extend(WorkloadSpec::vax11_set());
        all.extend(WorkloadSpec::s370_set());
        all
    }

    /// Looks a trace up by its paper name, case-insensitively (e.g.
    /// `"ED"`, `"grep"`, `"spice"`, `"FGO1"`).
    ///
    /// The paper reuses one name across architectures (`C2`, the third
    /// compiler phase, appears in both the Z8000 and VAX-11 tables), so a
    /// name may be qualified with an architecture prefix:
    /// `"z8000:C2"` / `"vax11:c2"`. Unqualified lookups return the first
    /// match in Tables 2–5 order.
    pub fn by_name(name: &str) -> Option<WorkloadSpec> {
        let (arch_filter, bare) = match name.split_once(':') {
            Some((prefix, rest)) => {
                let arch = match prefix.to_ascii_lowercase().as_str() {
                    "pdp11" | "pdp-11" => Architecture::Pdp11,
                    "z8000" => Architecture::Z8000,
                    "vax11" | "vax-11" | "vax" => Architecture::Vax11,
                    "s370" | "370" | "s/370" => Architecture::S370,
                    _ => return None,
                };
                (Some(arch), rest)
            }
            None => (None, name),
        };
        WorkloadSpec::all_named().into_iter().find(|spec| {
            arch_filter.is_none_or(|a| a == spec.arch()) && spec.name().eq_ignore_ascii_case(bare)
        })
    }

    /// Looks a *workload model* — a named trace set — up by name,
    /// case-insensitively. This is the vocabulary the serving layer and
    /// load generator speak: an architecture name (`"pdp11"`, `"z8000"`,
    /// `"vax11"`, `"s370"`, with the same aliases as [`by_name`](Self::by_name)) yields
    /// its paper trace set; `"z8000-full"`, `"z8000-compilers"`, `"m85"`
    /// and `"all"` name the other sets; any single-trace name accepted by
    /// [`by_name`](Self::by_name) (e.g. `"ED"`, `"z8000:C2"`) yields that one trace.
    pub fn set_by_name(name: &str) -> Option<Vec<WorkloadSpec>> {
        match name.to_ascii_lowercase().as_str() {
            "pdp11" | "pdp-11" => Some(WorkloadSpec::pdp11_set()),
            "z8000" => Some(WorkloadSpec::z8000_set()),
            "z8000-full" => Some(WorkloadSpec::z8000_full_set()),
            "z8000-compilers" => Some(WorkloadSpec::z8000_load_forward_set()),
            "vax11" | "vax-11" | "vax" => Some(WorkloadSpec::vax11_set()),
            "s370" | "370" | "s/370" => Some(WorkloadSpec::s370_set()),
            "m85" => Some(crate::m85_mix()),
            "all" => Some(WorkloadSpec::all_named()),
            _ => WorkloadSpec::by_name(name).map(|spec| vec![spec]),
        }
    }

    /// The set names [`set_by_name`](Self::set_by_name) accepts (canonical spellings only;
    /// single-trace names from Tables 2–5 also resolve). The serving
    /// layer's error messages and docs list these.
    pub fn set_names() -> &'static [&'static str] {
        &[
            "pdp11",
            "z8000",
            "z8000-full",
            "z8000-compilers",
            "vax11",
            "s370",
            "m85",
            "all",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occache_trace::TraceSource;

    #[test]
    fn all_sets_have_paper_cardinality() {
        assert_eq!(WorkloadSpec::pdp11_set().len(), 6);
        assert_eq!(WorkloadSpec::z8000_set().len(), 5);
        assert_eq!(WorkloadSpec::z8000_full_set().len(), 9);
        assert_eq!(WorkloadSpec::z8000_load_forward_set().len(), 3);
        assert_eq!(WorkloadSpec::vax11_set().len(), 6);
        assert_eq!(WorkloadSpec::s370_set().len(), 4);
    }

    #[test]
    fn names_are_unique_within_sets() {
        for set in [
            WorkloadSpec::pdp11_set(),
            WorkloadSpec::z8000_full_set(),
            WorkloadSpec::vax11_set(),
            WorkloadSpec::s370_set(),
        ] {
            let mut names: Vec<_> = set.iter().map(|s| s.name()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), set.len());
        }
    }

    #[test]
    fn specs_have_consistent_architecture() {
        for spec in WorkloadSpec::vax11_set() {
            assert_eq!(spec.arch(), Architecture::Vax11, "{}", spec.name());
        }
        for spec in WorkloadSpec::s370_set() {
            assert_eq!(spec.arch(), Architecture::S370, "{}", spec.name());
        }
    }

    #[test]
    fn distinct_traces_produce_distinct_streams() {
        let a = WorkloadSpec::pdp11_opsys().generator(0).collect_refs(2000);
        let b = WorkloadSpec::pdp11_plot().generator(0).collect_refs(2000);
        assert_ne!(a, b);
    }

    #[test]
    fn canonical_trace_is_reproducible() {
        let a = WorkloadSpec::vax_spice().generator(0).collect_refs(2000);
        let b = WorkloadSpec::vax_spice().generator(0).collect_refs(2000);
        assert_eq!(a, b);
    }

    #[test]
    fn by_name_finds_every_named_trace() {
        for spec in WorkloadSpec::all_named() {
            // Qualified lookups are exact even for the duplicated C2 name.
            let qualified = format!("{}:{}", arch_prefix(spec.arch()), spec.name());
            let found = WorkloadSpec::by_name(&qualified)
                .unwrap_or_else(|| panic!("lookup failed for {}", spec.name()));
            assert_eq!(found.name(), spec.name());
            assert_eq!(found.arch(), spec.arch());
        }
    }

    fn arch_prefix(arch: Architecture) -> &'static str {
        match arch {
            Architecture::Pdp11 => "pdp11",
            Architecture::Z8000 => "z8000",
            Architecture::Vax11 => "vax11",
            Architecture::S370 => "s370",
        }
    }

    #[test]
    fn by_name_is_case_insensitive() {
        assert_eq!(WorkloadSpec::by_name("grep").unwrap().name(), "GREP");
        assert_eq!(WorkloadSpec::by_name("SPICE").unwrap().name(), "spice");
        assert!(WorkloadSpec::by_name("nonexistent").is_none());
    }

    #[test]
    fn set_by_name_covers_every_listed_set_and_single_traces() {
        for &name in WorkloadSpec::set_names() {
            let set = WorkloadSpec::set_by_name(name)
                .unwrap_or_else(|| panic!("set lookup failed for {name}"));
            assert!(!set.is_empty(), "{name} resolved to an empty set");
        }
        assert_eq!(WorkloadSpec::set_by_name("PDP-11").unwrap().len(), 6);
        assert_eq!(WorkloadSpec::set_by_name("m85").unwrap().len(), 6);
        // Single-trace names fall through to by_name.
        let ed = WorkloadSpec::set_by_name("ed").unwrap();
        assert_eq!(ed.len(), 1);
        assert_eq!(ed[0].name(), "ED");
        assert!(WorkloadSpec::set_by_name("nonexistent").is_none());
    }

    #[test]
    fn qualified_names_disambiguate_c2() {
        // "C2" appears in both the Z8000 and VAX-11 tables.
        let z = WorkloadSpec::by_name("z8000:C2").unwrap();
        let v = WorkloadSpec::by_name("vax:c2").unwrap();
        assert_eq!(z.arch(), Architecture::Z8000);
        assert_eq!(v.arch(), Architecture::Vax11);
        assert!(WorkloadSpec::by_name("mips:c2").is_none(), "unknown prefix");
    }

    #[test]
    fn the_only_cross_table_name_collision_is_c2() {
        let all = WorkloadSpec::all_named();
        let mut names: Vec<String> = all.iter().map(|s| s.name().to_ascii_lowercase()).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before - 1, "exactly one duplicate (c2)");
    }

    #[test]
    fn descriptions_are_present() {
        for spec in WorkloadSpec::z8000_full_set() {
            assert!(!spec.description().is_empty(), "{}", spec.name());
        }
    }
}
