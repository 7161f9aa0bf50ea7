//! Multiprogramming: round-robin interleaving of several programs.
//!
//! §3.3 concedes that "the omission of task switching effects will bias
//! our estimated performance upward, although the small sizes of the
//! caches studied make this effect minor". This module makes that claim
//! testable: [`Multiprogram`] interleaves several generators with a fixed
//! quantum, exactly the structure a time-shared 1984 system imposed, so
//! experiments can measure the degradation directly (see the
//! `task_switch` artifact, `all task_switch`).

use occache_trace::{Address, MemRef};

use crate::generator::ProgramGenerator;
use crate::spec::WorkloadSpec;

/// Physical relocation distance between tasks: each task's address space
/// is placed in its own region, as a memory-mapped multiprogrammed system
/// would, so distinct programs never falsely share cache blocks.
const RELOCATION_STRIDE: u64 = 1 << 24;

/// Round-robin interleaving of several endless program generators.
///
/// ```
/// use occache_trace::TraceSource;
/// use occache_workloads::{Multiprogram, WorkloadSpec};
///
/// let mut mp = Multiprogram::new(
///     vec![
///         WorkloadSpec::pdp11_ed().generator(0),
///         WorkloadSpec::pdp11_opsys().generator(0),
///     ],
///     1_000,
/// );
/// let refs = mp.collect_refs(5_000);
/// assert_eq!(refs.len(), 5_000);
/// ```
#[derive(Debug, Clone)]
pub struct Multiprogram {
    tasks: Vec<ProgramGenerator>,
    quantum: usize,
    current: usize,
    remaining: usize,
    switches: u64,
}

impl Multiprogram {
    /// Interleaves `tasks`, switching every `quantum` references.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty or `quantum` is zero.
    pub fn new(tasks: Vec<ProgramGenerator>, quantum: usize) -> Self {
        assert!(!tasks.is_empty(), "need at least one task");
        assert!(quantum > 0, "quantum must be positive");
        Multiprogram {
            tasks,
            quantum,
            current: 0,
            remaining: quantum,
            switches: 0,
        }
    }

    /// Convenience constructor: one canonical generator per spec.
    pub fn from_specs(specs: &[WorkloadSpec], quantum: usize) -> Self {
        Multiprogram::new(specs.iter().map(|s| s.generator(0)).collect(), quantum)
    }

    /// Context switches taken so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Number of interleaved tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// The physical base address of task `index`.
    pub fn task_base(index: usize) -> u64 {
        index as u64 * RELOCATION_STRIDE
    }
}

impl Iterator for Multiprogram {
    type Item = MemRef;

    fn next(&mut self) -> Option<MemRef> {
        if self.remaining == 0 {
            self.current = (self.current + 1) % self.tasks.len();
            self.remaining = self.quantum;
            self.switches += 1;
        }
        self.remaining -= 1;
        let base = Multiprogram::task_base(self.current);
        self.tasks[self.current]
            .next()
            .map(|r| MemRef::new(Address::new(base + r.address().value()), r.kind()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occache_trace::{TraceSource, TraceStats};

    fn two_tasks(quantum: usize) -> Multiprogram {
        Multiprogram::from_specs(
            &[WorkloadSpec::pdp11_ed(), WorkloadSpec::pdp11_plot()],
            quantum,
        )
    }

    #[test]
    fn switches_happen_at_quantum_boundaries() {
        let mut mp = two_tasks(100);
        let _ = mp.collect_refs(1_000);
        assert_eq!(mp.switches(), 9, "one switch per quantum after the first");
    }

    #[test]
    fn single_task_matches_plain_generator() {
        let mut solo = Multiprogram::from_specs(&[WorkloadSpec::pdp11_ed()], 64);
        let mut plain = WorkloadSpec::pdp11_ed().generator(0);
        assert_eq!(solo.collect_refs(2_000), plain.collect_refs(2_000));
    }

    #[test]
    fn interleaving_preserves_per_task_streams() {
        // The quantum chunks of task 0 concatenated must equal the plain
        // task-0 stream (task 0 is relocated to base 0).
        let mut mp = two_tasks(50);
        let refs = mp.collect_refs(1_000);
        let task0: Vec<_> = refs.chunks(50).step_by(2).flatten().copied().collect();
        let mut plain = WorkloadSpec::pdp11_ed().generator(0);
        assert_eq!(task0, plain.collect_refs(500));
    }

    #[test]
    fn tasks_are_relocated_apart() {
        let mut mp = two_tasks(10);
        let refs = mp.collect_refs(20);
        // The second quantum belongs to task 1 and lives in its region.
        for r in &refs[10..20] {
            assert!(r.address().value() >= Multiprogram::task_base(1), "{r}");
        }
        for r in &refs[..10] {
            assert!(r.address().value() < Multiprogram::task_base(1), "{r}");
        }
    }

    #[test]
    fn footprint_grows_with_task_count() {
        let mut solo = Multiprogram::from_specs(&[WorkloadSpec::pdp11_ed()], 500);
        let mut duo = two_tasks(500);
        let word = 2;
        let mut s1 = TraceStats::new(word);
        let mut s2 = TraceStats::new(word);
        for r in solo.collect_refs(50_000) {
            s1.observe(r);
        }
        for r in duo.collect_refs(50_000) {
            s2.observe(r);
        }
        assert!(s2.footprint_bytes() > s1.footprint_bytes());
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn rejects_empty_task_list() {
        let _ = Multiprogram::new(Vec::new(), 10);
    }
}
