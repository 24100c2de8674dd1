//! The SSL-enabled secure RPC library (paper §4.1).
//!
//! The paper builds a generic secure RPC library from TI-RPC + OpenSSL,
//! exposing `clnt_tli_ssl_create` / `svc_tli_ssl_create` — the regular RPC
//! creation APIs plus one extra parameter, the security configuration
//! structure. This crate is that library for the Rust stack: it layers
//! [`sgfs_oncrpc`] over [`sgfs_gtls`], keeping the exact API shape, except
//! that [`svc_ssl_create`] also names the dispatcher that serves the
//! connection: a [`ShardServer`], where TI-RPC has its process-wide
//! `svc_run` loop.
//!
//! Because [`GtlsStream`] is itself a [`sgfs_net::Stream`], *any*
//! RPC-based application can use this crate unchanged — the property the
//! paper emphasizes ("this secure RPC library is generic to support all
//! RPC-based applications").
//!
//! ```
//! # use sgfs_secrpc::*;
//! # use sgfs_pki::*;
//! # use sgfs_gtls::GtlsConfig;
//! # use sgfs_oncrpc::{RpcService, OpaqueAuth, ShardServer, server::Dispatch};
//! # use sgfs_crypto::rsa::RsaKeyPair;
//! # use std::sync::Arc;
//! # struct Echo;
//! # impl RpcService for Echo {
//! #     fn program(&self) -> u32 { 7 }
//! #     fn version(&self) -> u32 { 1 }
//! #     fn handle(&self, _p: u32, _c: &OpaqueAuth, a: &mut sgfs_xdr::XdrDecoder<'_>) -> Dispatch {
//! #         Dispatch::reply(&a.get_u32().unwrap())
//! #     }
//! # }
//! # let mut rng = rand::thread_rng();
//! # let ca = CertificateAuthority::new(&DistinguishedName::parse("/O=G/CN=CA").unwrap(), 512, &mut rng);
//! # let mut trust = TrustStore::new();
//! # trust.add_root(ca.certificate().clone());
//! # let k1 = RsaKeyPair::generate(512, &mut rng);
//! # let c1 = ca.issue(&DistinguishedName::parse("/O=G/CN=u").unwrap(), &k1.public);
//! # let user = Credential::new(c1, k1);
//! # let k2 = RsaKeyPair::generate(512, &mut rng);
//! # let c2 = ca.issue(&DistinguishedName::parse("/O=G/CN=s").unwrap(), &k2.public);
//! # let host = Credential::new(c2, k2);
//! let shards = ShardServer::new(1);
//! let (client_end, server_end) = sgfs_net::pipe_pair();
//! let watch = server_end.watch();
//! let server_cfg = GtlsConfig::new(host, trust.clone());
//! // Client and server handshake concurrently, as two hosts would.
//! let (peer, mut client) = std::thread::scope(|s| {
//!     let server = s.spawn(|| {
//!         svc_ssl_create(Box::new(server_end), watch, server_cfg, Arc::new(Echo), &shards)
//!     });
//!     let client = clnt_ssl_create(Box::new(client_end), GtlsConfig::new(user, trust), 7, 1);
//!     (server.join().unwrap().unwrap(), client.unwrap())
//! });
//! assert_eq!(peer.effective_dn.to_string(), "/O=G/CN=u");
//! let doubled: u32 = client.client.call(1, &21u32).unwrap();
//! assert_eq!(doubled, 21);
//! ```

use sgfs_gtls::{GtlsConfig, GtlsError, GtlsStream};
use sgfs_net::{BoxStream, PipeWatch};
use sgfs_oncrpc::{RpcClient, RpcRecordService, RpcService, ShardServer};
use sgfs_pki::ValidatedPeer;
use std::sync::Arc;

/// A secure RPC client: the regular [`RpcClient`] plus the authenticated
/// peer identity established at connect time.
pub struct SecureRpcClient {
    /// The RPC client, running over the GTLS channel.
    pub client: RpcClient,
    /// Who the server authenticated as.
    pub peer: ValidatedPeer,
}

/// Create a secure RPC client over `transport` — the analog of the
/// paper's `clnt_tli_ssl_create(transport, prog, vers, ..., security)`.
///
/// Performs the full mutual-auth handshake before returning; the resulting
/// client's calls are protected by the negotiated suite.
pub fn clnt_ssl_create(
    transport: BoxStream,
    security: GtlsConfig,
    prog: u32,
    vers: u32,
) -> Result<SecureRpcClient, GtlsError> {
    let tls = GtlsStream::client(transport, security)?;
    let peer = tls.peer().clone();
    Ok(SecureRpcClient { client: RpcClient::new(Box::new(tls), prog, vers), peer })
}

/// Serve `service` over a secure channel on `transport` — the analog of
/// `svc_tli_ssl_create`. Runs the server side of the handshake on the
/// calling thread, then registers the protected connection with the
/// dispatcher, as TI-RPC's create does: the connection is pinned onto
/// `shards`, whose loops serve its calls from then on. Returns the
/// authenticated peer at once.
///
/// `watch` observes `transport`'s raw receive side: take it from the pipe
/// end before boxing it.
pub fn svc_ssl_create(
    transport: BoxStream,
    watch: PipeWatch,
    security: GtlsConfig,
    service: Arc<dyn RpcService>,
    shards: &ShardServer,
) -> Result<ValidatedPeer, GtlsError> {
    let tls = GtlsStream::server(transport, security)?;
    let peer = tls.peer().clone();
    shards.add_session(Box::new(tls), watch, Arc::new(RpcRecordService(service)))?;
    Ok(peer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgfs_crypto::rsa::RsaKeyPair;
    use sgfs_gtls::CipherSuite;
    use sgfs_oncrpc::server::Dispatch;
    use sgfs_oncrpc::OpaqueAuth;
    use sgfs_pki::{CertificateAuthority, Credential, DistinguishedName, TrustStore};
    use sgfs_xdr::XdrDecoder;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    struct Echo;

    impl RpcService for Echo {
        fn program(&self) -> u32 {
            0x3000_0001
        }
        fn version(&self) -> u32 {
            1
        }
        fn handle(&self, proc: u32, _cred: &OpaqueAuth, args: &mut XdrDecoder<'_>) -> Dispatch {
            match proc {
                0 => Dispatch::reply(&sgfs_oncrpc::client::NoArgs),
                1 => Dispatch::reply(&args.get_opaque().unwrap_or_default()),
                _ => Dispatch::Error(sgfs_oncrpc::AcceptStat::ProcUnavail),
            }
        }
    }

    fn creds() -> (GtlsConfig, GtlsConfig) {
        let mut rng = rand::thread_rng();
        let ca = CertificateAuthority::new(&dn("/O=Grid/CN=CA"), 512, &mut rng);
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        let uk = RsaKeyPair::generate(512, &mut rng);
        let uc = ca.issue(&dn("/O=Grid/CN=user"), &uk.public);
        let hk = RsaKeyPair::generate(512, &mut rng);
        let hc = ca.issue(&dn("/O=Grid/CN=host"), &hk.public);
        (
            GtlsConfig::new(Credential::new(uc, uk), trust.clone()),
            GtlsConfig::new(Credential::new(hc, hk), trust),
        )
    }

    /// Handshake both ends concurrently; the server end is then served
    /// by `shards`. Returns the client and the peer the server saw.
    fn connect(
        shards: &ShardServer,
        ccfg: GtlsConfig,
        scfg: GtlsConfig,
    ) -> (SecureRpcClient, ValidatedPeer) {
        let (a, b) = sgfs_net::pipe_pair();
        let watch = b.watch();
        std::thread::scope(|s| {
            let server =
                s.spawn(|| svc_ssl_create(Box::new(b), watch, scfg, Arc::new(Echo), shards));
            let client = clnt_ssl_create(Box::new(a), ccfg, 0x3000_0001, 1).unwrap();
            (client, server.join().unwrap().unwrap())
        })
    }

    #[test]
    fn secure_rpc_roundtrip_per_suite() {
        let shards = ShardServer::new(1);
        for suite in [CipherSuite::NullSha1, CipherSuite::Rc4_128Sha1, CipherSuite::Aes256CbcSha1]
        {
            let (ccfg, scfg) = creds();
            let (mut c, _) = connect(&shards, ccfg.with_suite(suite), scfg);
            assert_eq!(c.peer.effective_dn.to_string(), "/O=Grid/CN=host");
            let payload: Vec<u8> = (0..50_000).map(|i| (i % 256) as u8).collect();
            let echoed: Vec<u8> = c.client.call(1, &payload).unwrap();
            assert_eq!(echoed, payload, "suite {suite:?}");
        }
        assert_eq!(shards.stats().accepted, 3);
    }

    /// The create call returns the authenticated identity as soon as the
    /// handshake is done; the shard core serves the calls that follow.
    #[test]
    fn svc_ssl_create_returns_the_peer_then_the_shards_serve() {
        let shards = ShardServer::new(1);
        let (ccfg, scfg) = creds();
        let (mut c, peer) = connect(&shards, ccfg, scfg);
        assert_eq!(peer.effective_dn.to_string(), "/O=Grid/CN=user");
        assert_eq!(shards.stats().served, 0, "nothing served before the first call");
        c.client.null().unwrap();
        assert_eq!(shards.stats().served, 1);
    }
}
