//! The SGFS client- and server-side proxies.

pub mod blockstore;
pub mod client;
pub mod journal;
mod namecache;
pub mod pipeline;
pub mod retry;
pub mod server;
pub mod stripe;
mod wire;

pub use client::ClientProxy;
pub use pipeline::Pipeline;
pub use retry::Reconnector;
pub use server::ServerProxy;
pub use stripe::{StripeMap, StripeSet};

/// Proxy-layer errors.
#[derive(Debug)]
pub enum ProxyError {
    /// The authenticated grid user is not authorized by the gridmap.
    Unauthorized(String),
    /// Transport failure.
    Io(std::io::Error),
    /// Protocol violation.
    Protocol(String),
}

impl std::fmt::Display for ProxyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProxyError::Unauthorized(dn) => write!(f, "grid user {dn} not authorized"),
            ProxyError::Io(e) => write!(f, "proxy transport error: {e}"),
            ProxyError::Protocol(s) => write!(f, "proxy protocol error: {s}"),
        }
    }
}

impl std::error::Error for ProxyError {}

impl From<std::io::Error> for ProxyError {
    fn from(e: std::io::Error) -> Self {
        ProxyError::Io(e)
    }
}
