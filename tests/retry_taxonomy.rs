//! The retry taxonomy holds across the interface stack: every layer that
//! wraps or maps a [`DaosError`] — DFS, fdb on DAOS, HDF5 and Field I/O
//! — classifies it exactly as DAOS does.  A terminal DAOS error (data
//! loss) must never come back retriable, or a retry executor above it
//! spins on lost data; a retriable one must never come back terminal,
//! or a transient fault surfaces as a hard failure.

use daos_core::{DaosError, Retriable};
use field_io::FieldIoError;
use hdf5_lite::Hdf5Error;

/// Every [`DaosError`] variant.
const ALL: [DaosError; 10] = [
    DaosError::NoSuchContainer,
    DaosError::NoSuchObject,
    DaosError::WrongObjectType,
    DaosError::InvalidClass,
    DaosError::Unavailable,
    DaosError::NoSuchKey,
    DaosError::Timeout,
    DaosError::TargetDown,
    DaosError::BadChecksum,
    DaosError::Retriable,
];

/// Fails to compile when a variant is added, so [`ALL`] cannot fall
/// behind the enum.
fn listed(e: &DaosError) -> bool {
    match e {
        DaosError::NoSuchContainer
        | DaosError::NoSuchObject
        | DaosError::WrongObjectType
        | DaosError::InvalidClass
        | DaosError::Unavailable
        | DaosError::NoSuchKey
        | DaosError::Timeout
        | DaosError::TargetDown
        | DaosError::BadChecksum
        | DaosError::Retriable => ALL.contains(e),
    }
}

#[test]
fn every_layer_classifies_every_daos_error_as_daos_does() {
    let mut wrong = Vec::new();
    for e in ALL {
        assert!(listed(&e));
        let daos = e.is_retriable();
        let layers = [
            (
                "DFS",
                daos_dfs::namespace::map_daos(e.clone()).is_retriable(),
            ),
            ("fdb", fdb_sim::daos::map_daos(e.clone()).is_retriable()),
            ("HDF5", Hdf5Error::from(e.clone()).is_retriable()),
            ("Field I/O", FieldIoError::from(e.clone()).is_retriable()),
        ];
        for (layer, retriable) in layers {
            if retriable != daos {
                wrong.push(format!(
                    "{layer} maps {e:?} (retriable: {daos}) to retriable: {retriable}"
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
    // the table holds both outcomes, so it checks each direction
    assert!(ALL.iter().any(|e| e.is_retriable()) && ALL.iter().any(|e| !e.is_retriable()));
}
