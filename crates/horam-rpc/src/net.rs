//! Transport plumbing: endpoint addressing, listeners, and the stream
//! abstraction shared by server, client, and the fault injector.
//!
//! Both TCP and Unix-domain sockets are supported behind one
//! [`Endpoint`] syntax (`tcp://host:port`, `unix:///path`); everything
//! above this module works on a boxed [`NetStream`], which is also what
//! lets the chaos battery wrap a real socket in
//! [`FaultyConn`] without the server or
//! client knowing.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

use oram_storage::fault::FaultyConn;

/// Where a server listens / a client dials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address (`host:port`).
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses `tcp://host:port`, `unix:///path`, or a bare `host:port`
    /// (treated as TCP).
    ///
    /// # Errors
    ///
    /// `InvalidInput` for an empty address or unknown scheme.
    pub fn parse(raw: &str) -> io::Result<Self> {
        if let Some(rest) = raw.strip_prefix("tcp://") {
            if rest.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "empty tcp address",
                ));
            }
            return Ok(Endpoint::Tcp(rest.to_string()));
        }
        if let Some(rest) = raw.strip_prefix("unix://") {
            if rest.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "empty socket path",
                ));
            }
            return Ok(Endpoint::Unix(PathBuf::from(rest)));
        }
        if raw.contains("://") {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown endpoint scheme in {raw:?} (use tcp:// or unix://)"),
            ));
        }
        if raw.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "empty endpoint",
            ));
        }
        Ok(Endpoint::Tcp(raw.to_string()))
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            Endpoint::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

/// A bound listening socket.
#[derive(Debug)]
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener.
    Unix(UnixListener),
}

impl Listener {
    /// Binds the endpoint. For Unix sockets a stale socket file from a
    /// previous (crashed) process is removed first. The listener is set
    /// nonblocking — the server's control loop polls it between engine
    /// pumps, so accepting never blocks request processing.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(endpoint: &Endpoint) -> io::Result<Self> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                listener.set_nonblocking(true)?;
                Ok(Listener::Tcp(listener))
            }
            Endpoint::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                Ok(Listener::Unix(listener))
            }
        }
    }

    /// The endpoint actually bound — for TCP with port 0, this reports
    /// the kernel-assigned port.
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn local_endpoint(&self) -> io::Result<Endpoint> {
        match self {
            Listener::Tcp(listener) => Ok(Endpoint::Tcp(listener.local_addr()?.to_string())),
            Listener::Unix(listener) => {
                let addr = listener.local_addr()?;
                let path = addr
                    .as_pathname()
                    .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unnamed socket"))?;
                Ok(Endpoint::Unix(path.to_path_buf()))
            }
        }
    }

    /// Accepts one pending connection, if any (nonblocking): `Ok(None)`
    /// when no connection is waiting. A connection comes back as two
    /// handles on the same socket — the read stream and a write handle
    /// whose every `write` gives up after `write_timeout`, so a peer that
    /// stops reading cannot hold a writer longer than that.
    ///
    /// # Errors
    ///
    /// Propagates accept failures other than `WouldBlock`.
    pub fn try_accept(&self, write_timeout: Duration) -> io::Result<Option<Accepted>> {
        let pair: Accepted = match self {
            Listener::Tcp(listener) => match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nodelay(true)?;
                    stream.set_nonblocking(false)?;
                    let writer = stream.try_clone()?;
                    writer.set_write_timeout(Some(write_timeout))?;
                    (Box::new(stream), Box::new(writer))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(e),
            },
            Listener::Unix(listener) => match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    let writer = stream.try_clone()?;
                    writer.set_write_timeout(Some(write_timeout))?;
                    (Box::new(stream), Box::new(writer))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(e),
            },
        };
        Ok(Some(pair))
    }
}

/// One accepted connection: its read stream and a write handle on the
/// same socket (see [`Listener::try_accept`]).
pub type Accepted = (Box<dyn NetStream>, Box<dyn NetStream>);

/// The stream capabilities the protocol needs beyond `Read + Write`:
/// bounded reads (no wait in the system is indefinite) and a hard
/// close. Implemented for plain sockets and for fault-injected ones.
pub trait NetStream: Read + Write + Send {
    /// Bounds how long one `read` may block (`None` = unbounded).
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
    /// Severs both directions immediately.
    fn shutdown_both(&self) -> io::Result<()>;
}

impl NetStream for TcpStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }
    fn shutdown_both(&self) -> io::Result<()> {
        self.shutdown(std::net::Shutdown::Both)
    }
}

impl NetStream for UnixStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        UnixStream::set_read_timeout(self, timeout)
    }
    fn shutdown_both(&self) -> io::Result<()> {
        self.shutdown(std::net::Shutdown::Both)
    }
}

impl NetStream for FaultyConn<TcpStream> {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.get_ref().set_read_timeout(timeout)
    }
    fn shutdown_both(&self) -> io::Result<()> {
        self.get_ref().shutdown(std::net::Shutdown::Both)
    }
}

impl NetStream for FaultyConn<UnixStream> {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.get_ref().set_read_timeout(timeout)
    }
    fn shutdown_both(&self) -> io::Result<()> {
        self.get_ref().shutdown(std::net::Shutdown::Both)
    }
}

/// Dials the endpoint, returning a blocking stream.
///
/// # Errors
///
/// Propagates connect failures.
pub fn connect(endpoint: &Endpoint) -> io::Result<Box<dyn NetStream>> {
    match endpoint {
        Endpoint::Tcp(addr) => {
            let stream = TcpStream::connect(addr.as_str())?;
            stream.set_nodelay(true)?;
            Ok(Box::new(stream))
        }
        Endpoint::Unix(path) => Ok(Box::new(UnixStream::connect(path)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parsing() {
        assert_eq!(
            Endpoint::parse("tcp://127.0.0.1:7000").unwrap(),
            Endpoint::Tcp("127.0.0.1:7000".into())
        );
        assert_eq!(
            Endpoint::parse("127.0.0.1:7000").unwrap(),
            Endpoint::Tcp("127.0.0.1:7000".into())
        );
        assert_eq!(
            Endpoint::parse("unix:///tmp/horam.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/horam.sock"))
        );
        assert!(Endpoint::parse("http://x").is_err());
        assert!(Endpoint::parse("").is_err());
        assert!(Endpoint::parse("tcp://").is_err());
    }

    #[test]
    fn endpoint_display_roundtrips() {
        for raw in ["tcp://127.0.0.1:9", "unix:///tmp/h.sock"] {
            let endpoint = Endpoint::parse(raw).unwrap();
            assert_eq!(endpoint.to_string(), raw);
            assert_eq!(Endpoint::parse(&endpoint.to_string()).unwrap(), endpoint);
        }
    }

    #[test]
    fn tcp_listener_reports_ephemeral_port() {
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        match listener.local_endpoint().unwrap() {
            Endpoint::Tcp(addr) => assert!(!addr.ends_with(":0"), "got {addr}"),
            other => panic!("unexpected {other}"),
        }
    }
}
