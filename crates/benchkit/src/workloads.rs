//! [`ProcWorkload`] adapters for Field I/O and fdb-hammer.
//!
//! (IOR implements the trait itself in `ior-bench`; these two wrap the
//! application libraries with the paper's process/sequence structure.)

use cluster::bench::{pin_round_robin, Phase, ProcWorkload};
use cluster::payload::Payload;
use fdb_sim::{Fdb, FieldKey};
use field_io::FieldIo;
use simkit::Step;

/// Field I/O as a parallel workload: each process writes/reads a
/// sequence of fields.
pub struct FieldIoWorkload {
    /// The benchmark state.
    pub fio: FieldIo,
    pins: Vec<usize>,
    ops: usize,
    bytes: u64,
    /// Active phase.
    pub phase: Phase,
}

impl FieldIoWorkload {
    /// Build over a configured [`FieldIo`].
    pub fn new(fio: FieldIo, procs: usize, nodes: usize, ops: usize, bytes: u64) -> Self {
        FieldIoWorkload {
            fio,
            pins: pin_round_robin(procs, nodes),
            ops,
            bytes,
            phase: Phase::Write,
        }
    }
}

impl ProcWorkload for FieldIoWorkload {
    fn procs(&self) -> usize {
        self.pins.len()
    }
    fn node_of(&self, proc: usize) -> usize {
        self.pins[proc]
    }
    fn ops_per_proc(&self) -> usize {
        self.ops
    }
    fn bytes_per_op(&self) -> f64 {
        self.bytes as f64
    }
    fn setup(&mut self, proc: usize) -> Step {
        match self.phase {
            Phase::Write => self
                .fio
                .setup_proc(self.pins[proc], proc)
                .expect("field-io setup"),
            Phase::Read => Step::Noop,
        }
    }
    fn op(&mut self, proc: usize, idx: usize) -> Step {
        let node = self.pins[proc];
        match self.phase {
            Phase::Write => self
                .fio
                .write_field(node, proc, idx, Payload::Sized(self.bytes))
                .expect("field-io write"),
            Phase::Read => {
                self.fio
                    .read_field(node, proc, idx)
                    .expect("field-io read")
                    .1
            }
        }
    }
}

/// fdb-hammer as a parallel workload: each process archives/retrieves a
/// sequence of fields through any [`Fdb`] backend.
pub struct FdbWorkload<B: Fdb> {
    /// The FDB backend under test.
    pub fdb: B,
    pins: Vec<usize>,
    ops: usize,
    bytes: u64,
    /// Active phase.
    pub phase: Phase,
}

impl<B: Fdb> FdbWorkload<B> {
    /// Build over a configured backend.
    pub fn new(fdb: B, procs: usize, nodes: usize, ops: usize, bytes: u64) -> Self {
        FdbWorkload {
            fdb,
            pins: pin_round_robin(procs, nodes),
            ops,
            bytes,
            phase: Phase::Write,
        }
    }
}

impl<B: Fdb> ProcWorkload for FdbWorkload<B> {
    fn procs(&self) -> usize {
        self.pins.len()
    }
    fn node_of(&self, proc: usize) -> usize {
        self.pins[proc]
    }
    fn ops_per_proc(&self) -> usize {
        self.ops
    }
    fn bytes_per_op(&self) -> f64 {
        self.bytes as f64
    }
    fn setup(&mut self, proc: usize) -> Step {
        match self.phase {
            Phase::Write => self
                .fdb
                .setup_proc(self.pins[proc], proc)
                .expect("fdb setup"),
            Phase::Read => Step::Noop,
        }
    }
    fn op(&mut self, proc: usize, idx: usize) -> Step {
        let node = self.pins[proc];
        let key = FieldKey::sequence(proc, idx);
        match self.phase {
            Phase::Write => self
                .fdb
                .archive(node, proc, &key, Payload::Sized(self.bytes))
                .expect("fdb archive"),
            Phase::Read => self.fdb.retrieve(node, proc, &key).expect("fdb retrieve").1,
        }
    }
    fn finalize(&mut self, proc: usize) -> Step {
        match self.phase {
            Phase::Write => self.fdb.flush(self.pins[proc], proc).expect("fdb flush"),
            Phase::Read => Step::Noop,
        }
    }
    fn finalize_in_window(&self) -> bool {
        // the final flush of buffered writers carries real field data
        self.phase == Phase::Write
    }
}
