//! The dictionary behind every text column.
//!
//! A text column stores one `u32` code per cell; [`StrDict`] holds each
//! distinct string once. All entries' text lives in one `String`, each
//! entry ending at a recorded byte offset, so an entry is a plain `&str`
//! slice of it. An open-addressing index maps text back to its code for
//! interning and lookups. Codes are handed out in first-appearance order,
//! and equal strings always get equal codes.
//!
//! Kernels resolve a text operation once per entry (a predicate's verdict,
//! a group id, a join partner) and then once per row by code.

use std::fmt;

use crate::error::{Error, Result};

/// Marks an empty index slot; no entry ever has this code.
const EMPTY: u32 = u32::MAX;

/// Index slots of a dictionary with one entry.
const MIN_SLOTS: usize = 16;

/// Index slots beyond which the index stops growing: a 32-bit hash
/// addresses no more.
const MAX_SLOTS: u64 = 1 << 32;

const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiplicative hash of a string, folded to the 32 bits a dictionary
/// keeps per entry; its *high* bits are well mixed.
#[inline]
fn str_hash(s: &str) -> u32 {
    let bytes = s.as_bytes();
    let mut h = bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h.rotate_left(5) ^ w).wrapping_mul(HASH_MUL);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        // Byte by byte: a variable-length copy is a libc call, which
        // costs more than the whole hash of a short key.
        let w = tail
            .iter()
            .rev()
            .fold(0u64, |w, &b| (w << 8) | u64::from(b));
        h = (h.rotate_left(5) ^ w).wrapping_mul(HASH_MUL);
    }
    (h >> 32) as u32
}

/// Byte equality; short keys compare inline, since `==` on slices is a
/// `memcmp` call.
#[inline]
fn same(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    a.len() == b.len()
        && if a.len() <= 16 {
            a.iter().zip(b).all(|(x, y)| x == y)
        } else {
            a == b
        }
}

/// Most entries a dictionary holds. Codes stay below `u32::MAX - 1`, so
/// both a code plus one and the empty-slot marker fit a `u32`.
pub const MAX_ENTRIES: usize = u32::MAX as usize - 1;

/// The code the next entry of a dictionary of `len` entries receives: a
/// typed error past [`MAX_ENTRIES`].
fn next_code(len: usize) -> Result<u32> {
    if len < MAX_ENTRIES {
        Ok(len as u32)
    } else {
        Err(Error::Unsupported(format!(
            "a text column holds at most {MAX_ENTRIES} distinct values"
        )))
    }
}

/// The distinct strings of a text column, each held once and named by a
/// dense `u32` code in first-appearance order.
#[derive(Clone, Default)]
pub struct StrDict {
    /// Every entry's bytes, back to back.
    text: String,
    /// `ends[c]` is the byte offset where entry `c` ends; it starts where
    /// entry `c - 1` ends.
    ends: Vec<usize>,
    /// `hashes[c]` is [`str_hash`] of entry `c`: probes compare it before
    /// any text, the index is rebuilt from it, and a merge of one
    /// dictionary into another reads it instead of hashing again.
    hashes: Vec<u32>,
    /// Open-addressing index of codes by hash, linear probing at a load
    /// of at most one half. Its length is a power of two and a function of
    /// the entry count alone (empty until the first entry), so two
    /// dictionaries of the same entries take the same bytes however they
    /// were built.
    slots: Vec<u32>,
}

impl StrDict {
    /// An empty dictionary.
    pub fn new() -> StrDict {
        StrDict::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when there is no entry.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Entry `code` (panics when there is no such entry, like slice
    /// indexing).
    #[inline]
    pub fn get(&self, code: u32) -> &str {
        let c = code as usize;
        let start = if c == 0 { 0 } else { self.ends[c - 1] };
        &self.text[start..self.ends[c]]
    }

    /// Every entry, in code order.
    pub fn entries(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.ends.len()).map(|c| self.get(c as u32))
    }

    /// The code of `s`, if it is an entry.
    #[inline]
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.find(s, str_hash(s)).ok()
    }

    /// The code of `s`, adding it as the next entry on first sight.
    #[inline]
    pub fn intern(&mut self, s: &str) -> Result<u32> {
        self.intern_hashed(s, str_hash(s))
    }

    /// The code in this dictionary of `other`'s entry `code`, added on
    /// first sight; `other`'s hash of it is reused.
    #[inline]
    pub fn intern_from(&mut self, other: &StrDict, code: u32) -> Result<u32> {
        self.intern_hashed(other.get(code), other.hashes[code as usize])
    }

    fn intern_hashed(&mut self, s: &str, h: u32) -> Result<u32> {
        match self.find(s, h) {
            Ok(code) => Ok(code),
            Err(at) => {
                let code = next_code(self.len())?;
                self.text.push_str(s);
                self.ends.push(self.text.len());
                self.hashes.push(h);
                // At most half full; past 2^32 slots the load may rise,
                // and a slot stays free, since codes stop below `EMPTY`.
                let slots = self.slots.len();
                if self.len() * 2 > slots && (slots as u64) < MAX_SLOTS {
                    self.reindex(MIN_SLOTS.max(slots * 2));
                } else {
                    self.slots[at] = code;
                }
                Ok(code)
            }
        }
    }

    /// Remove every entry, keeping the allocations.
    pub fn clear(&mut self) {
        self.text.clear();
        self.ends.clear();
        self.hashes.clear();
        self.slots.clear();
    }

    /// Bytes held: the text, the end offsets, the hashes and the index.
    pub fn approx_bytes(&self) -> usize {
        self.text.len()
            + self.ends.len() * std::mem::size_of::<usize>()
            + (self.hashes.len() + self.slots.len()) * std::mem::size_of::<u32>()
    }

    /// `Ok(code)` of `s` (whose hash is `h`), or `Err(slot)`: the empty
    /// slot where it would go (meaningless while the index has no slots).
    #[inline]
    fn find(&self, s: &str, h: u32) -> std::result::Result<u32, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(h);
        loop {
            let code = self.slots[i];
            if code == EMPTY {
                return Err(i);
            }
            if self.hashes[code as usize] == h && same(self.get(code), s) {
                return Ok(code);
            }
            i = (i + 1) & mask;
        }
    }

    /// The first slot a hash probes: its high bits index the table.
    #[inline]
    fn home(&self, h: u32) -> usize {
        (u64::from(h) << 32 >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Rebuild the index over `slots` slots, reusing its allocation.
    #[cold]
    fn reindex(&mut self, slots: usize) {
        self.slots.clear();
        self.slots.resize(slots, EMPTY);
        let mask = slots - 1;
        for (code, &h) in self.hashes.iter().enumerate() {
            let mut i = self.home(h);
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = code as u32;
        }
    }
}

impl fmt::Debug for StrDict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.entries()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_in_first_appearance_order_equal_text_equal_code() {
        let mut d = StrDict::new();
        let keys = ["", "a", "abcdefgh", "abcdefghi", "a", "", "é", "日本"];
        let codes: Vec<u32> = keys.iter().map(|k| d.intern(k).unwrap()).collect();
        assert_eq!(codes, vec![0, 1, 2, 3, 1, 0, 4, 5]);
        assert_eq!(d.len(), 6);
        let entries: Vec<&str> = d.entries().collect();
        assert_eq!(entries, ["", "a", "abcdefgh", "abcdefghi", "é", "日本"]);
        assert_eq!(d.lookup("é"), Some(4));
        assert_eq!(d.lookup("b"), None);
        assert_eq!(d.get(3), "abcdefghi");
    }

    #[test]
    fn growth_keeps_every_code_and_the_index_depends_on_the_count_alone() {
        let mut grown = StrDict::new();
        assert_eq!(grown.approx_bytes(), 0);
        for k in 0..5000u32 {
            assert_eq!(grown.intern(&format!("k{k}")).unwrap(), k);
        }
        for k in (0..5000u32).step_by(7) {
            assert_eq!(grown.lookup(&format!("k{k}")), Some(k));
            assert_eq!(grown.get(k), format!("k{k}"));
        }
        assert_eq!(grown.lookup("k5000"), None);
        // A cleared dictionary keeps its allocations, not its index size:
        // rebuilt, it takes the bytes of a fresh one.
        let mut reused = grown.clone();
        reused.clear();
        assert_eq!(reused.approx_bytes(), 0);
        let mut fresh = StrDict::new();
        for k in 0..100 {
            reused.intern(&format!("x{k}")).unwrap();
            fresh.intern(&format!("x{k}")).unwrap();
        }
        assert_eq!(reused.approx_bytes(), fresh.approx_bytes());
        // Offsets and hashes, then 256 slots of 4 bytes for 100 entries.
        let text: usize = (0..100).map(|k| format!("x{k}").len()).sum();
        assert_eq!(fresh.approx_bytes(), text + 100 * (8 + 4) + 256 * 4);
    }

    #[test]
    fn codes_run_out_with_a_typed_error() {
        assert_eq!(next_code(0).unwrap(), 0);
        assert_eq!(next_code(MAX_ENTRIES - 1).unwrap(), u32::MAX - 2);
        for len in [MAX_ENTRIES, EMPTY as usize, usize::MAX] {
            let err = next_code(len).unwrap_err();
            assert!(matches!(err, Error::Unsupported(_)), "{err}");
        }
    }
}
