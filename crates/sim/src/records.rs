//! A short list that holds its first element inline.
//!
//! Most per-name, per-node and per-user rows of a simulated network hold
//! exactly one element. [`Records`] keeps that element in itself and
//! moves to the heap only when a second arrives, so the common row
//! allocates nothing and costs its own size rather than a pointer, a
//! capacity and a heap block of four. Its users:
//!
//! * the NDN tables (`tactic-ndn`, which re-exports this module as
//!   `tactic_ndn::records`): a PIT entry's one requester, a FIB entry's
//!   one next hop;
//! * the transport (`tactic-net`): an access point's one pending face per
//!   name, a user's one link, its one face and its one busy lane;
//! * a user's own state: the retry queue of its request window
//!   (`tactic_net::requester`), which rarely holds more than the one
//!   chunk put back behind a registration; a TACTIC consumer's
//!   per-provider tags and
//!   renewal deadlines, one per provider it deals with; and the latency
//!   series of [`stats`](crate::stats), one bucket per second with a
//!   delivery, which for most users of a short fleet run is one.
//!
//! It lives in this crate, the bottom of the workspace, so that the
//! simulator's own types can use it.

/// A list that holds its first element inline and spills to the heap
/// only from the second on.
///
/// Reads and in-place writes go through `Deref`/`DerefMut` to `[T]`.
#[derive(Debug, Clone)]
pub enum Records<T> {
    /// Zero or one element, inline.
    Inline(Option<T>),
    /// A second element arrived: the list lives on the heap (and stays
    /// there if it shrinks again).
    Spilled(Vec<T>),
}

/// Equality is over the elements, whichever form holds them.
impl<T: PartialEq> PartialEq for Records<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for Records<T> {}

impl<T> Default for Records<T> {
    fn default() -> Self {
        Records::Inline(None)
    }
}

impl<T> Records<T> {
    /// A one-element list.
    pub fn one(item: T) -> Self {
        Records::Inline(Some(item))
    }

    /// An empty list with room for `n` elements: inline for up to one,
    /// else one heap block of exactly `n`, so filling it to `n` never
    /// reallocates.
    pub fn with_capacity(n: usize) -> Self {
        match n {
            0 | 1 => Records::default(),
            n => Records::Spilled(Vec::with_capacity(n)),
        }
    }

    /// Appends an element.
    pub fn push(&mut self, item: T) {
        let len = self.len();
        self.insert(len, item);
    }

    /// Inserts an element at `index`, shifting the later ones up.
    ///
    /// # Panics
    ///
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, item: T) {
        match self {
            Records::Inline(slot @ None) => {
                assert!(index == 0, "insert index {index} past the end of 0");
                *slot = Some(item);
            }
            Records::Inline(first) => {
                let first = first.take().expect("the empty case matched above");
                *self = Records::Spilled(match index {
                    0 => vec![item, first],
                    1 => vec![first, item],
                    _ => panic!("insert index {index} past the end of 1"),
                });
            }
            Records::Spilled(list) => list.insert(index, item),
        }
    }

    /// Removes and returns the element at `index`, shifting the later ones
    /// down (a spilled list keeps its heap block).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn remove(&mut self, index: usize) -> T {
        match self {
            Records::Inline(slot) => {
                let len = usize::from(slot.is_some());
                assert!(index < len, "remove index {index} past the end of {len}");
                slot.take().expect("checked above")
            }
            Records::Spilled(list) => list.remove(index),
        }
    }

    /// Keeps only the elements `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match self {
            Records::Inline(slot) => {
                if slot.as_ref().is_some_and(|item| !keep(item)) {
                    *slot = None;
                }
            }
            Records::Spilled(list) => list.retain(keep),
        }
    }

    /// Removes every element (a spilled list keeps its heap block).
    pub fn clear(&mut self) {
        match self {
            Records::Inline(slot) => *slot = None,
            Records::Spilled(list) => list.clear(),
        }
    }
}

impl<T> std::ops::Deref for Records<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            Records::Inline(slot) => slot.as_slice(),
            Records::Spilled(list) => list,
        }
    }
}

impl<T> std::ops::DerefMut for Records<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Records::Inline(slot) => slot.as_mut_slice(),
            Records::Spilled(list) => list,
        }
    }
}

impl<T> IntoIterator for Records<T> {
    type Item = T;
    type IntoIter = std::iter::Chain<std::option::IntoIter<T>, std::vec::IntoIter<T>>;

    fn into_iter(self) -> Self::IntoIter {
        let (first, rest) = match self {
            Records::Inline(slot) => (slot, Vec::new()),
            Records::Spilled(list) => (None, list),
        };
        first.into_iter().chain(rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_element_stays_inline_and_a_second_spills() {
        let mut r: Records<u32> = Records::default();
        r.push(1);
        assert!(matches!(r, Records::Inline(Some(1))));
        r.push(3);
        r.insert(1, 2);
        assert!(matches!(r, Records::Spilled(_)));
        assert_eq!(*r, [1, 2, 3]);
        r[0] = 0;
        assert_eq!(r.clone().into_iter().collect::<Vec<_>>(), [0, 2, 3]);
    }

    #[test]
    fn a_sized_list_fills_to_its_capacity_in_its_one_block() {
        assert!(matches!(
            Records::<u32>::with_capacity(1),
            Records::Inline(None)
        ));
        let mut r = Records::with_capacity(5);
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(*r, [0, 1, 2, 3, 4]);
        let Records::Spilled(list) = &r else {
            panic!("five elements live on the heap");
        };
        assert_eq!(list.capacity(), 5, "one block, exactly as long as asked");
    }

    #[test]
    fn insert_at_either_end_of_an_inline_element() {
        let mut front = Records::one(2);
        front.insert(0, 1);
        let mut back = Records::one(1);
        back.insert(1, 2);
        assert_eq!(*front, [1, 2]);
        assert_eq!(front, back);
    }

    #[test]
    fn clear_and_retain_empty_either_form() {
        let mut inline = Records::one(5);
        inline.clear();
        assert!(inline.is_empty());
        inline.insert(0, 6);
        assert_eq!(*inline, [6]);
        inline.retain(|&x| x != 6);
        assert!(inline.is_empty());

        let mut spilled = Records::one(1);
        spilled.push(2);
        spilled.clear();
        assert!(spilled.is_empty());
        assert!(
            matches!(spilled, Records::Spilled(_)),
            "the heap block stays"
        );
        assert_eq!(spilled, Records::default(), "equal over the elements");
    }

    #[test]
    #[should_panic(expected = "past the end")]
    fn insert_past_the_end_panics() {
        Records::one(1).insert(2, 0);
    }

    #[test]
    fn remove_takes_from_either_form() {
        let mut inline = Records::one(7);
        assert_eq!(inline.remove(0), 7);
        assert!(matches!(inline, Records::Inline(None)));
        let mut spilled = Records::one(1);
        spilled.push(2);
        spilled.push(3);
        assert_eq!(spilled.remove(1), 2);
        assert_eq!(*spilled, [1, 3]);
    }

    #[test]
    #[should_panic(expected = "past the end")]
    fn remove_past_the_end_panics() {
        Records::<u8>::default().remove(0);
    }
}
