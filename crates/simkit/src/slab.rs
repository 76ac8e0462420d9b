//! A minimal slab allocator: stable integer keys, O(1) insert/remove.
//!
//! Used by the engine for flows and continuations.  Kept dependency-free
//! on purpose.

/// Slab of `T` with reusable `u32` keys.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    free_head: Option<u32>,
    len: usize,
}

#[derive(Debug, Clone)]
enum Entry<T> {
    Occupied(T),
    Vacant { next_free: Option<u32> },
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Empty slab.
    pub fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free_head: None,
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a value, returning its key.
    pub fn insert(&mut self, value: T) -> u32 {
        self.len += 1;
        match self.free_head {
            Some(idx) => {
                match self.entries[idx as usize] {
                    Entry::Vacant { next_free } => self.free_head = next_free,
                    Entry::Occupied(_) => unreachable!("free list points at occupied entry"),
                }
                self.entries[idx as usize] = Entry::Occupied(value);
                idx
            }
            None => {
                let idx = self.entries.len() as u32;
                self.entries.push(Entry::Occupied(value));
                idx
            }
        }
    }

    /// Remove and return the value at `key`.
    ///
    /// Panics if `key` is vacant — removal of a dead key is always an
    /// engine bug, never a recoverable condition.
    pub fn remove(&mut self, key: u32) -> T {
        let slot = &mut self.entries[key as usize];
        match std::mem::replace(
            slot,
            Entry::Vacant {
                next_free: self.free_head,
            },
        ) {
            Entry::Occupied(v) => {
                self.free_head = Some(key);
                self.len -= 1;
                v
            }
            vacant @ Entry::Vacant { .. } => {
                *slot = vacant;
                panic!("slab: remove of vacant key {key}");
            }
        }
    }

    /// Shared access.
    pub fn get(&self, key: u32) -> Option<&T> {
        match self.entries.get(key as usize) {
            Some(Entry::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    /// Exclusive access.
    pub fn get_mut(&mut self, key: u32) -> Option<&mut T> {
        match self.entries.get_mut(key as usize) {
            Some(Entry::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    /// Iterate `(key, &value)` over live entries.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                Entry::Occupied(v) => Some((i as u32, v)),
                Entry::Vacant { .. } => None,
            })
    }

    /// Iterate `(key, &mut value)` over live entries.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u32, &mut T)> {
        self.entries
            .iter_mut()
            .enumerate()
            .filter_map(|(i, e)| match e {
                Entry::Occupied(v) => Some((i as u32, v)),
                Entry::Vacant { .. } => None,
            })
    }

    /// Remove every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.free_head = None;
        self.len = 0;
    }
}

impl<T> std::ops::Index<u32> for Slab<T> {
    type Output = T;
    fn index(&self, key: u32) -> &T {
        self.get(key).expect("slab: index of vacant key")
    }
}

impl<T> std::ops::IndexMut<u32> for Slab<T> {
    fn index_mut(&mut self, key: u32) -> &mut T {
        self.get_mut(key).expect("slab: index of vacant key")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s[a], "a");
        assert_eq!(s[b], "b");
        assert_eq!(s.remove(a), "a");
        assert_eq!(s.len(), 1);
        assert!(s.get(a).is_none());
    }

    #[test]
    fn keys_are_reused() {
        let mut s = Slab::new();
        let a = s.insert(1);
        s.remove(a);
        let b = s.insert(2);
        assert_eq!(a, b, "vacant slot reused");
        assert_eq!(s[b], 2);
    }

    #[test]
    fn iteration_skips_vacant() {
        let mut s = Slab::new();
        let _a = s.insert(1);
        let b = s.insert(2);
        let _c = s.insert(3);
        s.remove(b);
        let vals: Vec<i32> = s.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "vacant")]
    fn remove_vacant_panics() {
        let mut s = Slab::new();
        let a = s.insert(0u8);
        s.remove(a);
        s.remove(a);
    }

    #[test]
    fn clear_resets() {
        let mut s = Slab::new();
        s.insert(1);
        s.insert(2);
        s.clear();
        assert!(s.is_empty());
        let k = s.insert(9);
        assert_eq!(s[k], 9);
    }

    #[test]
    fn interleaved_stress() {
        let mut s = Slab::new();
        let mut keys = Vec::new();
        for i in 0..1000u32 {
            keys.push(s.insert(i));
            if i % 3 == 0 {
                let k = keys.swap_remove((i as usize) / 2 % keys.len());
                s.remove(k);
            }
        }
        let live: Vec<u32> = s.iter().map(|(_, v)| *v).collect();
        assert_eq!(live.len(), s.len());
        assert_eq!(keys.len(), s.len());
    }
}
