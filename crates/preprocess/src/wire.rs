//! Wire protocol between producer (CPU node) and consumer (GPU node).
//!
//! The framing itself — 4-byte little-endian length prefix, chunked
//! hostile-input-safe reads, JSON control messages — lives in
//! [`dt_simengine::frame`], the codec this module shares with the
//! `dt-serve` planner daemon (one implementation, two protocols). This
//! module defines the preprocessing protocol's *messages*: the consumer's
//! [`Request`]s and the producer's [`BatchHeader`] response (followed by
//! one raw frame of concatenated token bytes, never base64-inflated).
//!
//! ```text
//! request:  [len][json Request]
//! response: [len][json BatchHeader] [len][raw token bytes]
//! ```

use crate::error::PreprocessError;
use dt_data::TrainSample;
use dt_simengine::json::Json;

// The messages' codec trait, beside them: perfbench's frame probe imports
// it as `dt_preprocess::wire::WireJson`.
pub use dt_simengine::frame::WireJson;

/// The most samples one `FetchBatch` may ask for: the production task's
/// global batch of 1920 (`TrainingTask::production`), the largest anything
/// requests. The producer allocates a request's samples up front, so an
/// unbounded count (`u32::MAX` is ~4.3 G samples) lets one frame abort it.
/// A larger count is a malformed request, and [`crate::ConsumerBuilder`]
/// refuses to ask for one.
pub const MAX_FETCH_COUNT: u32 = 1920;

/// Consumer → producer control messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Produce and send the next global batch of `count` samples.
    FetchBatch {
        /// Samples in the requested global batch.
        count: u32,
    },
    /// Close the session.
    Shutdown,
}

/// Metadata frame preceding the bulk token bytes of one global batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchHeader {
    /// The (already reordered) samples, in dispatch order.
    pub samples: Vec<TrainSample>,
    /// Per-sample token-byte lengths, same order (the bulk frame is their
    /// concatenation).
    pub token_lens: Vec<u64>,
    /// Producer-side CPU time spent preprocessing this batch, nanoseconds
    /// (reported for the Figure 17 accounting).
    pub producer_cpu_ns: u64,
}

impl WireJson for Request {
    fn to_json(&self) -> Json {
        match self {
            Request::FetchBatch { count } => Json::obj(vec![(
                "FetchBatch",
                Json::obj(vec![("count", Json::num_u64(u64::from(*count)))]),
            )]),
            Request::Shutdown => Json::Str("Shutdown".into()),
        }
    }

    fn from_json(value: &Json) -> Result<Self, String> {
        if value.as_str() == Some("Shutdown") {
            return Ok(Request::Shutdown);
        }
        let count = value
            .get("FetchBatch")
            .and_then(|f| f.get("count"))
            .and_then(Json::as_u32)
            .ok_or("malformed Request")?;
        Ok(Request::FetchBatch { count })
    }
}

fn sample_to_json(s: &TrainSample) -> Json {
    Json::obj(vec![
        ("id", Json::num_u64(s.id)),
        ("text_tokens", Json::num_u64(s.text_tokens)),
        (
            "image_resolutions",
            Json::arr_u64(s.image_resolutions.iter().map(|&r| u64::from(r))),
        ),
        ("gen_images", Json::num_u64(u64::from(s.gen_images))),
        ("gen_resolution", Json::num_u64(u64::from(s.gen_resolution))),
        ("patch", Json::num_u64(u64::from(s.patch))),
    ])
}

/// Decode one sample, rejecting one no generator could have drawn: more
/// generation targets than images.
fn sample_from_json(value: &Json) -> Result<TrainSample, PreprocessError> {
    let malformed = |reason: String| PreprocessError::Malformed { reason };
    let field = |k: &str| {
        value
            .get(k)
            .ok_or_else(|| malformed(format!("sample missing {k}")))
    };
    let bad = |k: &str| malformed(format!("bad {k}"));
    let sample = TrainSample {
        id: field("id")?.as_u64().ok_or_else(|| bad("id"))?,
        text_tokens: field("text_tokens")?
            .as_u64()
            .ok_or_else(|| bad("text_tokens"))?,
        image_resolutions: field("image_resolutions")?
            .to_u32_vec()
            .ok_or_else(|| bad("image_resolutions"))?,
        gen_images: field("gen_images")?
            .as_u32()
            .ok_or_else(|| bad("gen_images"))?,
        gen_resolution: field("gen_resolution")?
            .as_u32()
            .ok_or_else(|| bad("gen_resolution"))?,
        patch: field("patch")?.as_u32().ok_or_else(|| bad("patch"))?,
    };
    if sample.gen_images as usize > sample.image_resolutions.len() {
        return Err(malformed(format!(
            "sample {} has {} generation targets but {} images",
            sample.id,
            sample.gen_images,
            sample.image_resolutions.len()
        )));
    }
    Ok(sample)
}

impl WireJson for BatchHeader {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "samples",
                Json::Arr(self.samples.iter().map(sample_to_json).collect()),
            ),
            ("token_lens", Json::arr_u64(self.token_lens.iter().copied())),
            ("producer_cpu_ns", Json::num_u64(self.producer_cpu_ns)),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, String> {
        let samples = value
            .get("samples")
            .and_then(Json::as_array)
            .ok_or("header missing samples")?
            .iter()
            .map(sample_from_json)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok(BatchHeader {
            samples,
            token_lens: value
                .get("token_lens")
                .and_then(Json::to_u64_vec)
                .ok_or("header missing token_lens")?,
            producer_cpu_ns: value
                .get("producer_cpu_ns")
                .and_then(Json::as_u64)
                .ok_or("header missing producer_cpu_ns")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_simengine::frame::{read_json, write_frame, write_json};
    use std::io::Cursor;

    #[test]
    fn json_messages_round_trip() {
        let mut buf = Vec::new();
        write_json(&mut buf, &Request::FetchBatch { count: 42 }).unwrap();
        write_json(&mut buf, &Request::Shutdown).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(
            read_json::<Request>(&mut cur).unwrap(),
            Request::FetchBatch { count: 42 }
        );
        assert_eq!(read_json::<Request>(&mut cur).unwrap(), Request::Shutdown);
    }

    fn header(gen_images: u32) -> BatchHeader {
        let sample = TrainSample {
            id: 99,
            text_tokens: 8,
            image_resolutions: vec![224, 512],
            gen_images,
            gen_resolution: 1024,
            patch: 14,
        };
        BatchHeader {
            samples: vec![sample],
            token_lens: vec![17],
            producer_cpu_ns: 5_000,
        }
    }

    #[test]
    fn batch_header_round_trips() {
        let header = header(2);
        let mut buf = Vec::new();
        write_json(&mut buf, &header).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_json::<BatchHeader>(&mut cur).unwrap(), header);
    }

    #[test]
    fn header_with_more_generation_targets_than_images_is_rejected() {
        let json = sample_to_json(&header(3).samples[0]);
        assert!(matches!(
            sample_from_json(&json),
            Err(PreprocessError::Malformed { reason }) if reason.contains("3 generation targets")
        ));
        let mut buf = Vec::new();
        write_json(&mut buf, &header(3)).unwrap();
        let err = read_json::<BatchHeader>(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn garbage_json_is_invalid_data() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"not json").unwrap();
        let mut cur = Cursor::new(buf);
        let err = read_json::<Request>(&mut cur).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
