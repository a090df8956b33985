//! A small synchronous client for the line-delimited JSON protocol: one
//! request line out, one response line back, in order. Used by
//! `examples/client.rs`, the integration tests, and the server benchmark.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use pfe_engine::Json;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write).
    Io(std::io::Error),
    /// The server closed the connection before answering.
    ServerClosed,
    /// The response line was not valid JSON.
    BadResponse(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "client io error: {e}"),
            Self::ServerClosed => write!(f, "server closed the connection"),
            Self::BadResponse(m) => write!(f, "unparseable response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// One connection to a `pfe-server`, speaking the wire protocol
/// synchronously (`docs/PROTOCOL.md` is the op reference).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a listening server.
    ///
    /// # Errors
    /// Socket-level failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: stream,
        })
    }

    /// Send one request object, wait for its response object.
    ///
    /// # Errors
    /// `Io` on socket failures, `ServerClosed` on EOF (including the
    /// saturation rejection path, where the server answers then closes),
    /// `BadResponse` if the response line is not JSON.
    pub fn request(&mut self, req: &Json) -> Result<Json, ClientError> {
        self.request_line(&req.to_string())
    }

    /// Send one pre-serialized request line, wait for its response.
    ///
    /// # Errors
    /// As [`request`](Self::request).
    pub fn request_line(&mut self, line: &str) -> Result<Json, ClientError> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Read one response line without sending anything — for the
    /// rejection line the server writes before closing a saturated
    /// connection.
    ///
    /// # Errors
    /// As [`request`](Self::request).
    pub fn read_response(&mut self) -> Result<Json, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::ServerClosed);
        }
        Json::parse(line.trim()).map_err(|e| ClientError::BadResponse(e.to_string()))
    }
}
