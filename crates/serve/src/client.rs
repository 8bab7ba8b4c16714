//! A typed, blocking client for the placement daemon.
//!
//! One [`Client`] owns one TCP connection and issues one request at a
//! time (the protocol is strict request/response, no pipelining). Every
//! verb has a typed method; a server-side [`RpcError`] comes back as
//! [`ClientError::Server`] rather than being conflated with transport
//! failures, so callers can distinguish "the daemon is draining" from
//! "the daemon is gone".

use std::net::{TcpStream, ToSocketAddrs};

use vc_engine::BatchStrategy;

use crate::rpc::{
    ControlAck, DecodeError, FitInfo, OccupancyInfo, PlaceOutcome, Request, Response, RpcError,
    ServiceStats, WireRequest,
};
use crate::wire::{read_frame, write_frame, WireError};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport or framing failed (daemon gone, frame truncated).
    Wire(WireError),
    /// The daemon's bytes did not decode to a response.
    Decode(DecodeError),
    /// The daemon answered, with an error.
    Server(RpcError),
    /// The daemon answered with a response of the wrong type for the
    /// request (a protocol bug, not a transport failure). Boxed: a
    /// `Response` is large (batch outcomes, stats) and would bloat
    /// every `Result` on the happy path.
    Unexpected(Box<Response>),
    /// The daemon closed the connection instead of answering.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire failure: {e}"),
            ClientError::Decode(e) => write!(f, "undecodable response: {e}"),
            ClientError::Server(e) => write!(f, "server error ({:?}): {}", e.code, e.message),
            ClientError::Unexpected(r) => write!(f, "mismatched response type: {r:?}"),
            ClientError::Closed => write!(f, "connection closed mid-exchange"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<DecodeError> for ClientError {
    fn from(e: DecodeError) -> Self {
        ClientError::Decode(e)
    }
}

/// A blocking connection to a placement daemon.
pub struct Client {
    stream: TcpStream,
    /// Sent with every control verb; empty = no token. A daemon
    /// configured with `--control-token` refuses control verbs that do
    /// not carry the matching token (data verbs never need it).
    control_token: String,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates the socket connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            stream,
            control_token: String::new(),
        })
    }

    /// Attaches the control token sent with every control verb
    /// (pause/resume/drain/shutdown).
    #[must_use]
    pub fn with_control_token(mut self, token: impl Into<String>) -> Self {
        self.control_token = token.into();
        self
    }

    /// One request/response exchange.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`]/[`ClientError::Decode`] on transport or
    /// codec failures, [`ClientError::Closed`] when the daemon hangs up
    /// instead of answering. A decoded [`Response::Error`] is returned
    /// as `Ok` here — the typed verbs below lift it to
    /// [`ClientError::Server`].
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &req.encode())?;
        let payload = read_frame(&mut self.stream)?.ok_or(ClientError::Closed)?;
        Ok(Response::decode(&payload)?)
    }

    fn exchange<T>(
        &mut self,
        req: &Request,
        pick: impl FnOnce(Response) -> Result<T, Box<Response>>,
    ) -> Result<T, ClientError> {
        match self.request(req)? {
            Response::Error(e) => Err(ClientError::Server(e)),
            other => pick(other).map_err(ClientError::Unexpected),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.exchange(&Request::Ping, |r| match r {
            Response::Pong => Ok(()),
            other => Err(Box::new(other)),
        })
    }

    /// Places one container.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with
    /// [`ErrorCode::Draining`](crate::rpc::ErrorCode::Draining) when
    /// the daemon no longer admits placements; transport errors as in
    /// [`Client::request`]. A capacity rejection is **not** an error —
    /// it is [`PlaceOutcome::Rejected`].
    pub fn place(
        &mut self,
        req: WireRequest,
        strategy: BatchStrategy,
    ) -> Result<PlaceOutcome, ClientError> {
        self.exchange(&Request::Place { req, strategy }, |r| match r {
            Response::Place(o) => Ok(o),
            other => Err(Box::new(other)),
        })
    }

    /// Places a batch; one outcome per request, in order.
    ///
    /// # Errors
    ///
    /// As for [`Client::place`].
    pub fn place_batch(
        &mut self,
        reqs: Vec<WireRequest>,
        strategy: BatchStrategy,
    ) -> Result<Vec<PlaceOutcome>, ClientError> {
        self.exchange(&Request::PlaceBatch { reqs, strategy }, |r| match r {
            Response::Batch(o) => Ok(o),
            other => Err(Box::new(other)),
        })
    }

    /// Releases a placement by ticket.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with
    /// [`ErrorCode::UnknownTicket`](crate::rpc::ErrorCode::UnknownTicket)
    /// for a double release; transport errors as in [`Client::request`].
    pub fn release(&mut self, ticket: u64) -> Result<(), ClientError> {
        self.exchange(&Request::Release { ticket }, |r| match r {
            Response::Released => Ok(()),
            other => Err(Box::new(other)),
        })
    }

    /// Engine + daemon counters.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn stats(&mut self) -> Result<ServiceStats, ClientError> {
        self.exchange(&Request::Stats, |r| match r {
            Response::Stats(s) => Ok(s),
            other => Err(Box::new(other)),
        })
    }

    /// Thread-level occupancy of one machine.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn occupancy(&mut self, machine: u32) -> Result<OccupancyInfo, ClientError> {
        self.exchange(&Request::Occupancy { machine }, |r| match r {
            Response::Occupancy(o) => Ok(o),
            other => Err(Box::new(other)),
        })
    }

    /// Advisory can-we-fit probe; reserves nothing.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn can_fit(&mut self, req: WireRequest) -> Result<FitInfo, ClientError> {
        self.exchange(&Request::CanFit { req }, |r| match r {
            Response::CanFit(fit) => Ok(fit),
            other => Err(Box::new(other)),
        })
    }

    /// Pauses the background rebalance loop.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn pause_rebalance(&mut self) -> Result<ControlAck, ClientError> {
        let token = self.control_token.clone();
        self.control(&Request::PauseRebalance { token })
    }

    /// Resumes the background rebalance loop.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn resume_rebalance(&mut self) -> Result<ControlAck, ClientError> {
        let token = self.control_token.clone();
        self.control(&Request::ResumeRebalance { token })
    }

    /// Puts the daemon into draining: placements are refused, releases
    /// complete.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn drain(&mut self) -> Result<ControlAck, ClientError> {
        let token = self.control_token.clone();
        self.control(&Request::Drain { token })
    }

    /// Asks the daemon to exit. The daemon leaves this connection out of
    /// the ones it shuts down, so the call observes the ack before the
    /// connection closes: a clean shutdown handshake.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn shutdown(&mut self) -> Result<ControlAck, ClientError> {
        let token = self.control_token.clone();
        self.control(&Request::Shutdown { token })
    }

    fn control(&mut self, req: &Request) -> Result<ControlAck, ClientError> {
        self.exchange(req, |r| match r {
            Response::Ack(a) => Ok(a),
            other => Err(Box::new(other)),
        })
    }
}
