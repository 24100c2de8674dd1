//! Umbrella crate for the SGFS reproduction: re-exports the public
//! surface of every layer so examples and integration tests can use one
//! coherent namespace. See README.md for the tour and DESIGN.md for the
//! system inventory.

pub use sgfs::{self as core, acl, config, proxy, session, tunnel};
pub use sgfs_crypto as crypto;
pub use sgfs_gtls as gtls;
pub use sgfs_net as net;
pub use sgfs_nfs3 as nfs3;
pub use sgfs_nfsclient as nfsclient;
pub use sgfs_nfsd as nfsd;
pub use sgfs_obs as obs;
pub use sgfs_oncrpc as oncrpc;
pub use sgfs_pki as pki;
pub use sgfs_secrpc as secrpc;
pub use sgfs_services as services;
pub use sgfs_vfs as vfs;
pub use sgfs_workloads as workloads;
pub use sgfs_xdr as xdr;
