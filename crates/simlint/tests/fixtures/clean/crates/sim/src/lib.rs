//! Clean fixture: every analysis is armed and none fires.

// simlint::sim_state — replay-visible fixture state
pub struct Counter {
    pub ticks: u64,
}

pub enum TickError {
    Busy,
    // simlint::terminal_error — exhaustion is final
    Exhausted,
}

impl Counter {
    /// The only mutator, reached from the fault handler.
    pub fn tick(&mut self) -> Result<(), TickError> {
        if self.ticks == u64::MAX {
            return Err(TickError::Exhausted);
        }
        self.ticks += 1;
        Ok(())
    }
}

// simlint::panic_root — fixture fault handler: must never panic
pub fn on_fault(c: &mut Counter) {
    let _ = c.tick();
}

pub fn fold_digest(c: &mut Counter) -> u64 {
    on_fault(c);
    c.ticks
}
