//! Message payloads with a byte-size accounting hook.

/// A value that can travel between ranks. `size_bytes` feeds the traffic
/// counters; it should reflect the wire size an MPI implementation would
/// move (payload only — envelope overhead is modeled on the cluster-sim
/// side as the latency term).
pub trait Payload: Send + 'static {
    /// Serialized size in bytes.
    fn size_bytes(&self) -> usize;
}

impl<T: Copy + Send + 'static> Payload for Vec<T> {
    fn size_bytes(&self) -> usize {
        std::mem::size_of::<T>() * self.len()
    }
}

/// Shared buffers move by reference count — a forwarding rank in
/// [`crate::Comm::ring_bcast`] re-sends the chunk it received, and every
/// hop of the binomial tree in [`crate::Comm::bcast`] passes the
/// root's allocation on, without copying the bytes. The *wire* size is
/// still the full inner payload: sharing is a host-memory optimization,
/// not a traffic one, and the counters must keep telling the truth about
/// what a real network would carry.
impl<T: Payload + Sync> Payload for std::sync::Arc<T> {
    fn size_bytes(&self) -> usize {
        (**self).size_bytes()
    }
}

macro_rules! impl_payload_scalar {
    ($($t:ty),*) => {
        $(impl Payload for $t {
            fn size_bytes(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        })*
    };
}

impl_payload_scalar!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool);

impl<A: Payload, B: Payload> Payload for (A, B) {
    fn size_bytes(&self) -> usize {
        self.0.size_bytes() + self.1.size_bytes()
    }
}

impl<A: Payload, B: Payload, C: Payload> Payload for (A, B, C) {
    fn size_bytes(&self) -> usize {
        self.0.size_bytes() + self.1.size_bytes() + self.2.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_payload_size() {
        assert_eq!(vec![0f32; 10].size_bytes(), 40);
        assert_eq!(vec![0f64; 10].size_bytes(), 80);
        assert_eq!(Vec::<u8>::new().size_bytes(), 0);
    }

    #[test]
    fn arc_vec_counts_inner_bytes() {
        assert_eq!(std::sync::Arc::new(vec![0f32; 10]).size_bytes(), 40);
        assert_eq!(std::sync::Arc::new(Vec::<u64>::new()).size_bytes(), 0);
    }

    #[test]
    fn scalar_and_tuple_sizes() {
        assert_eq!(3u32.size_bytes(), 4);
        assert_eq!((1u32, vec![0f32; 2]).size_bytes(), 12);
        assert_eq!((1u8, 2u8, vec![0u64; 1]).size_bytes(), 10);
    }
}
