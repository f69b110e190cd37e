//! RCU buffers: FIFOs for deterministic-access operands and the LIFO link
//! stack that hands intermediate results from GEMV to D-SymGS (§4.3, §4.4,
//! Figure 11).

/// A first-in-first-out buffer with occupancy statistics.
///
/// The RCU uses FIFOs for operands with deterministic access order — the
/// streamed `Aᵀ` values and the right-hand side `b` (§4.3).
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    items: std::collections::VecDeque<T>,
    pushes: u64,
    pops: u64,
    max_depth: usize,
}

impl<T> Fifo<T> {
    /// Creates an empty FIFO.
    pub fn new() -> Self {
        Fifo {
            items: std::collections::VecDeque::new(),
            pushes: 0,
            pops: 0,
            max_depth: 0,
        }
    }

    /// Enqueues a value.
    pub fn push(&mut self, value: T) {
        self.items.push_back(value);
        self.pushes += 1;
        self.max_depth = self.max_depth.max(self.items.len());
    }

    /// Empties the FIFO and zeroes its statistics, keeping its storage:
    /// afterwards it is indistinguishable from [`Fifo::new`].
    pub fn reset(&mut self) {
        self.items.clear();
        self.pushes = 0;
        self.pops = 0;
        self.max_depth = 0;
    }

    /// Dequeues the oldest value.
    pub fn pop(&mut self) -> Option<T> {
        let v = self.items.pop_front();
        if v.is_some() {
            self.pops += 1;
        }
        v
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total push operations.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Total (successful) pop operations.
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// High-water mark of occupancy — sizes the hardware buffer.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }
}

impl<T> Default for Fifo<T> {
    fn default() -> Self {
        Fifo::new()
    }
}

/// The last-in-first-out link stack (§4.4).
///
/// "During runtime, the intermediate results generated by GEMV are pushed
/// into the stack. Then, the successive D-SymGS pops them up" — the LIFO
/// order matters because the D-SymGS data path consumes partial sums in the
/// reverse of the order the reordered GEMVs produced them.
#[derive(Debug, Clone)]
pub struct LinkStack<T> {
    items: Vec<T>,
    pushes: u64,
    pops: u64,
    max_depth: usize,
}

impl<T> LinkStack<T> {
    /// Creates an empty stack.
    pub fn new() -> Self {
        LinkStack {
            items: Vec::new(),
            pushes: 0,
            pops: 0,
            max_depth: 0,
        }
    }

    /// Pushes a value.
    pub fn push(&mut self, value: T) {
        self.items.push(value);
        self.pushes += 1;
        self.max_depth = self.max_depth.max(self.items.len());
    }

    /// Empties the stack and zeroes its statistics, keeping its storage:
    /// afterwards it is indistinguishable from [`LinkStack::new`].
    pub fn reset(&mut self) {
        self.items.clear();
        self.pushes = 0;
        self.pops = 0;
        self.max_depth = 0;
    }

    /// Pops the most recent value.
    pub fn pop(&mut self) -> Option<T> {
        let v = self.items.pop();
        if v.is_some() {
            self.pops += 1;
        }
        v
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total push operations.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Total (successful) pop operations.
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// High-water mark of occupancy.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }
}

impl<T> Default for LinkStack<T> {
    fn default() -> Self {
        LinkStack::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_preserves_order() {
        let mut f = Fifo::new();
        f.push(1);
        f.push(2);
        f.push(3);
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), Some(3));
        assert_eq!(f.pop(), None);
        assert_eq!(f.pushes(), 3);
        assert_eq!(f.pops(), 3);
    }

    #[test]
    fn stack_reverses_order() {
        let mut s = LinkStack::new();
        s.push("gemv0");
        s.push("gemv1");
        assert_eq!(s.pop(), Some("gemv1"));
        assert_eq!(s.pop(), Some("gemv0"));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn max_depth_tracks_high_water() {
        let mut s = LinkStack::new();
        s.push(1);
        s.push(2);
        s.pop();
        s.push(3);
        assert_eq!(s.max_depth(), 2);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn reset_returns_buffers_to_new() {
        let mut s = LinkStack::new();
        s.push(1);
        s.push(2);
        s.reset();
        assert!(s.is_empty());
        assert_eq!((s.pushes(), s.pops(), s.max_depth()), (0, 0, 0));
        let mut f = Fifo::new();
        f.push(1);
        let _ = f.pop();
        f.push(2);
        f.reset();
        assert!(f.is_empty());
        assert_eq!((f.pushes(), f.pops(), f.max_depth()), (0, 0, 0));
    }

    #[test]
    fn failed_pop_is_not_counted() {
        let mut f: Fifo<i32> = Fifo::new();
        assert!(f.pop().is_none());
        assert_eq!(f.pops(), 0);
        assert!(f.is_empty());
    }
}
