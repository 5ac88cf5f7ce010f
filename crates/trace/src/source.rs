//! The `PathSource` abstraction the simulator consumes.

use std::sync::Arc;

use specfetch_isa::{DynInstr, Program};

/// A supplier of one correct execution path through a static program.
///
/// This is the simulator's input contract: a static [`Program`] image (used
/// to walk wrong paths) plus a stream of retired correct-path instructions
/// with ground-truth outcomes. Implementations include trace replay
/// ([`crate::Replay`]), in-memory vectors ([`VecSource`]), and the synthetic
/// workload interpreter in `specfetch-synth`.
pub trait PathSource {
    /// The static image this path executes within.
    fn program(&self) -> &Program;

    /// The static image as a cheaply clonable shared handle.
    ///
    /// Engines keep a `Program` alive for wrong-path walks; sharing one
    /// allocation across every engine in a sweep avoids deep-copying the
    /// image per run. The default clones once per call — sources that
    /// already hold their image behind an `Arc` override this to hand out
    /// the existing handle.
    fn shared_program(&self) -> Arc<Program> {
        Arc::new(self.program().clone())
    }

    /// The next retired correct-path instruction, or `None` when the trace
    /// is exhausted.
    fn next_instr(&mut self) -> Option<DynInstr>;

    /// The shared recorded trace behind this source, if it replays one.
    ///
    /// Engines that find a trace here walk it with their own cursor,
    /// issuing whole sequential runs instead of materialising one
    /// [`DynInstr`] per call; the default (`None`) keeps the
    /// instruction-at-a-time contract. Only [`crate::PredictedSource`]
    /// returns `Some`.
    fn predicted(&self) -> Option<&Arc<crate::PredictedTrace>> {
        None
    }

    /// Caps the stream at `limit` instructions (useful for scaled-down
    /// simulations of long traces).
    ///
    /// # Examples
    ///
    /// ```
    /// use specfetch_isa::{Addr, DynInstr, InstrKind, ProgramBuilder};
    /// use specfetch_trace::{PathSource, VecSource};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = ProgramBuilder::new(Addr::new(0));
    /// b.push_seq(3);
    /// b.set_entry(Addr::new(0));
    /// let p = b.finish()?;
    /// let path = vec![DynInstr::seq(Addr::new(0)), DynInstr::seq(Addr::new(4))];
    /// let mut s = VecSource::new(p, path).take_instrs(1);
    /// assert!(s.next_instr().is_some());
    /// assert!(s.next_instr().is_none());
    /// # Ok(())
    /// # }
    /// ```
    fn take_instrs(self, limit: u64) -> Take<Self>
    where
        Self: Sized,
    {
        Take { inner: self, remaining: limit }
    }
}

/// A [`PathSource`] truncated to a fixed number of instructions.
///
/// Produced by [`PathSource::take_instrs`].
#[derive(Clone, Debug)]
pub struct Take<S> {
    inner: S,
    remaining: u64,
}

impl<S: PathSource> Take<S> {
    /// Instructions still allowed through.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Unwraps the underlying source.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: PathSource> PathSource for Take<S> {
    fn program(&self) -> &Program {
        self.inner.program()
    }

    fn shared_program(&self) -> Arc<Program> {
        self.inner.shared_program()
    }

    fn next_instr(&mut self) -> Option<DynInstr> {
        if self.remaining == 0 {
            return None;
        }
        let d = self.inner.next_instr()?;
        self.remaining -= 1;
        Some(d)
    }
}

/// An in-memory path: a program plus a pre-materialised instruction list.
///
/// Mostly useful in tests and for tiny hand-written scenarios.
#[derive(Clone, Debug)]
pub struct VecSource {
    program: Arc<Program>,
    path: std::vec::IntoIter<DynInstr>,
}

impl VecSource {
    /// Wraps a program and an explicit dynamic path.
    pub fn new(program: Program, path: Vec<DynInstr>) -> Self {
        Self::shared(Arc::new(program), path)
    }

    /// Like [`VecSource::new`], but reuses an existing shared image.
    pub fn shared(program: Arc<Program>, path: Vec<DynInstr>) -> Self {
        VecSource { program, path: path.into_iter() }
    }
}

impl PathSource for VecSource {
    fn program(&self) -> &Program {
        &self.program
    }

    fn shared_program(&self) -> Arc<Program> {
        Arc::clone(&self.program)
    }

    fn next_instr(&mut self) -> Option<DynInstr> {
        self.path.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfetch_isa::{Addr, ProgramBuilder};

    fn program3() -> Program {
        let mut b = ProgramBuilder::new(Addr::new(0));
        b.push_seq(3);
        b.set_entry(Addr::new(0));
        b.finish().unwrap()
    }

    fn path3() -> Vec<DynInstr> {
        vec![DynInstr::seq(Addr::new(0)), DynInstr::seq(Addr::new(4)), DynInstr::seq(Addr::new(8))]
    }

    #[test]
    fn vec_source_streams_in_order() {
        let mut s = VecSource::new(program3(), path3());
        assert_eq!(s.next_instr().unwrap().pc, Addr::new(0));
        assert_eq!(s.next_instr().unwrap().pc, Addr::new(4));
        assert_eq!(s.next_instr().unwrap().pc, Addr::new(8));
        assert!(s.next_instr().is_none());
        assert!(s.next_instr().is_none());
    }

    #[test]
    fn take_caps_the_stream() {
        let mut s = VecSource::new(program3(), path3()).take_instrs(2);
        assert_eq!(s.remaining(), 2);
        assert!(s.next_instr().is_some());
        assert!(s.next_instr().is_some());
        assert!(s.next_instr().is_none());
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn take_zero_is_empty() {
        let mut s = VecSource::new(program3(), path3()).take_instrs(0);
        assert!(s.next_instr().is_none());
    }

    #[test]
    fn take_exposes_program_and_inner() {
        let s = VecSource::new(program3(), path3()).take_instrs(1);
        assert_eq!(s.program().len(), 3);
        let inner = s.into_inner();
        assert_eq!(inner.program().len(), 3);
    }
}
