//! Weather-field keys: the scientifically meaningful request language
//! FDB exposes (MARS-style identifiers).

use std::fmt;

/// Identifies one weather field (a simplified MARS key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldKey {
    /// Forecast base date, `YYYYMMDD`.
    pub date: u32,
    /// Forecast base time, hours.
    pub time: u8,
    /// Ensemble member number.
    pub member: u16,
    /// Parameter id (e.g. 130 = temperature).
    pub param: u16,
    /// Model level.
    pub level: u16,
    /// Forecast step, hours.
    pub step: u16,
}

impl FieldKey {
    /// The key of the `i`-th field archived by process `proc` in a
    /// benchmark sequence: every process writes a distinct ensemble
    /// member, iterating over params/levels/steps — the access pattern
    /// fdb-hammer generates.
    pub fn sequence(proc: usize, i: usize) -> FieldKey {
        FieldKey {
            date: 20260706,
            time: 0,
            member: proc as u16,
            param: 129 + (i % 8) as u16,
            level: 1 + ((i / 8) % 137) as u16,
            step: ((i / (8 * 137)) * 3) as u16,
        }
    }

    /// The index grouping this key belongs to (FDB indexes by
    /// date/time/member — the "TOC" granularity).
    pub fn index_group(&self) -> String {
        format!("{}:{:02}:{}", self.date, self.time, self.member)
    }
}

impl fmt::Display for FieldKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "d={},t={:02},m={},p={},l={},s={}",
            self.date, self.time, self.member, self.param, self.level, self.step
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_keys_are_unique_per_proc() {
        let mut seen = std::collections::BTreeSet::new();
        for proc in 0..4 {
            for i in 0..500 {
                assert!(
                    seen.insert(FieldKey::sequence(proc, i)),
                    "dup at {proc}/{i}"
                );
            }
        }
    }

    #[test]
    fn index_group_shared_within_member() {
        let a = FieldKey::sequence(3, 0);
        let b = FieldKey::sequence(3, 17);
        assert_eq!(a.index_group(), b.index_group());
        assert_ne!(a.index_group(), FieldKey::sequence(4, 0).index_group());
    }

    #[test]
    fn display_is_stable() {
        let k = FieldKey::sequence(1, 1);
        assert_eq!(k.to_string(), format!("{k}"));
        assert!(k.to_string().contains("m=1"));
    }
}

/// A partial key: `None` fields match anything (the MARS-request style
/// FDB queries use, e.g. "all levels of param 130 for member 3").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeyQuery {
    /// Match a specific date.
    pub date: Option<u32>,
    /// Match a specific base time.
    pub time: Option<u8>,
    /// Match a specific ensemble member.
    pub member: Option<u16>,
    /// Match a specific parameter.
    pub param: Option<u16>,
    /// Match a specific level.
    pub level: Option<u16>,
    /// Match a specific step.
    pub step: Option<u16>,
}

impl KeyQuery {
    /// Match everything.
    pub fn all() -> KeyQuery {
        KeyQuery::default()
    }

    /// Restrict to one ensemble member.
    pub fn member(member: u16) -> KeyQuery {
        KeyQuery {
            member: Some(member),
            ..Default::default()
        }
    }

    /// Whether `key` satisfies the query.
    pub fn matches(&self, key: &FieldKey) -> bool {
        self.date.is_none_or(|v| v == key.date)
            && self.time.is_none_or(|v| v == key.time)
            && self.member.is_none_or(|v| v == key.member)
            && self.param.is_none_or(|v| v == key.param)
            && self.level.is_none_or(|v| v == key.level)
            && self.step.is_none_or(|v| v == key.step)
    }
}

#[cfg(test)]
mod query_tests {
    use super::*;

    #[test]
    fn all_matches_everything() {
        let q = KeyQuery::all();
        assert!(q.matches(&FieldKey::sequence(0, 0)));
        assert!(q.matches(&FieldKey::sequence(7, 123)));
    }

    #[test]
    fn member_query_filters() {
        let q = KeyQuery::member(3);
        assert!(q.matches(&FieldKey::sequence(3, 5)));
        assert!(!q.matches(&FieldKey::sequence(4, 5)));
    }

    #[test]
    fn compound_query() {
        let k = FieldKey::sequence(2, 9);
        let q = KeyQuery {
            member: Some(2),
            param: Some(k.param),
            ..Default::default()
        };
        assert!(q.matches(&k));
        let q2 = KeyQuery {
            member: Some(2),
            param: Some(k.param + 1),
            ..Default::default()
        };
        assert!(!q2.matches(&k));
    }
}
