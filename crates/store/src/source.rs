//! Streaming corpus sources: iterators of `(id, bytecode)` contracts
//! with a stable textual descriptor, so the driver can scan populations
//! larger than RAM and a scan manifest can name its input precisely
//! enough for `--resume` to refuse a mismatched one.
//!
//! Adapters:
//!
//! - [`MemorySource`] — an in-memory list (CLI file arguments, tests);
//! - [`CorpusSource`] — the generator, streamed via [`corpus::stream`]
//!   (one contract resident at a time);
//! - [`ChainedSource`] — concatenation of the above (files + corpus in
//!   one scan).

use corpus::PopulationConfig;

/// One contract pulled from a source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceContract {
    /// Stable identifier (file name, `family#id`…).
    pub id: String,
    /// Runtime bytecode.
    pub bytecode: Vec<u8>,
}

/// A streaming source of contracts. `Iterator` supplies the stream
/// (yielding `Err` for unreadable items without aborting the scan
/// decision upstream); [`ContractSource::descriptor`] supplies a stable
/// identity recorded in scan manifests — two invocations that would
/// yield different streams must produce different descriptors.
pub trait ContractSource: Iterator<Item = Result<SourceContract, String>> {
    /// Stable textual identity of this source's stream.
    fn descriptor(&self) -> String;
}

// ---------------------------------------------------------------------------
// In-memory
// ---------------------------------------------------------------------------

/// A source over an in-memory list. The descriptor hashes ids and
/// bytecodes, so editing any input file between a scan and its resume is
/// detected.
pub struct MemorySource {
    items: std::vec::IntoIter<SourceContract>,
    descriptor: String,
}

impl MemorySource {
    /// Wraps `(id, bytecode)` pairs.
    pub fn new(items: Vec<(String, Vec<u8>)>) -> MemorySource {
        let mut material = Vec::new();
        for (id, code) in &items {
            material.extend_from_slice(id.as_bytes());
            material.push(0);
            material.extend_from_slice(code);
            material.push(0);
        }
        let digest = evm::keccak256(&material);
        let hex: String = digest.iter().take(8).map(|b| format!("{b:02x}")).collect();
        let descriptor = format!("mem:{}:{hex}", items.len());
        let items = items
            .into_iter()
            .map(|(id, bytecode)| SourceContract { id, bytecode })
            .collect::<Vec<_>>()
            .into_iter();
        MemorySource { items, descriptor }
    }
}

impl Iterator for MemorySource {
    type Item = Result<SourceContract, String>;
    fn next(&mut self) -> Option<Self::Item> {
        self.items.next().map(Ok)
    }
}

impl ContractSource for MemorySource {
    fn descriptor(&self) -> String {
        self.descriptor.clone()
    }
}

// ---------------------------------------------------------------------------
// Generated corpus
// ---------------------------------------------------------------------------

/// The corpus generator as a streaming source: contracts are produced
/// one at a time by [`corpus::stream`], so population size only bounds
/// the stream length, not resident memory.
pub struct CorpusSource {
    stream: std::iter::Take<corpus::PopulationStream>,
    cfg: PopulationConfig,
}

impl CorpusSource {
    /// Streams `cfg.size` unique contracts for `cfg`.
    pub fn new(cfg: PopulationConfig) -> CorpusSource {
        CorpusSource { stream: corpus::stream(&cfg).take(cfg.size), cfg }
    }
}

impl Iterator for CorpusSource {
    type Item = Result<SourceContract, String>;
    fn next(&mut self) -> Option<Self::Item> {
        self.stream.next().map(|c| {
            Ok(SourceContract { id: format!("{}#{}", c.family, c.id), bytecode: c.bytecode })
        })
    }
}

impl ContractSource for CorpusSource {
    fn descriptor(&self) -> String {
        // The scale suffix appears only for non-default scales, so
        // descriptors of pre-existing (small) populations — and hence
        // their scan manifests — stay byte-identical for `--resume`.
        match self.cfg.scale {
            corpus::Scale::Small => {
                format!("corpus:size={}:seed={}", self.cfg.size, self.cfg.seed)
            }
            scale => format!(
                "corpus:size={}:seed={}:scale={scale:?}",
                self.cfg.size, self.cfg.seed
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Concatenation
// ---------------------------------------------------------------------------

/// Concatenates sources, streaming each to exhaustion in order (e.g.
/// explicit files followed by a generated corpus).
pub struct ChainedSource {
    sources: Vec<Box<dyn ContractSource>>,
    current: usize,
}

impl ChainedSource {
    /// Chains `sources` in order.
    pub fn new(sources: Vec<Box<dyn ContractSource>>) -> ChainedSource {
        ChainedSource { sources, current: 0 }
    }
}

impl Iterator for ChainedSource {
    type Item = Result<SourceContract, String>;
    fn next(&mut self) -> Option<Self::Item> {
        while self.current < self.sources.len() {
            match self.sources[self.current].next() {
                Some(item) => return Some(item),
                None => self.current += 1,
            }
        }
        None
    }
}

impl ContractSource for ChainedSource {
    fn descriptor(&self) -> String {
        self.sources.iter().map(|s| s.descriptor()).collect::<Vec<_>>().join("+")
    }
}

/// Decodes hex bytecode with an optional `0x` prefix. Every other
/// character must be an ASCII hex digit: signs, whitespace and
/// multi-byte characters are rejected, never sliced or skipped.
pub fn parse_hex(text: &str) -> Result<Vec<u8>, String> {
    let hexish = text.strip_prefix("0x").unwrap_or(text).as_bytes();
    if let Some(pos) = hexish.iter().position(|b| !b.is_ascii_hexdigit()) {
        return Err(format!("bad hex bytecode: non-hex-digit byte at offset {pos}"));
    }
    if !hexish.len().is_multiple_of(2) {
        return Err("odd-length hex bytecode".into());
    }
    let nibble = |b: u8| (b as char).to_digit(16).expect("checked hex digit") as u8;
    Ok(hexish.chunks_exact(2).map(|pair| (nibble(pair[0]) << 4) | nibble(pair[1])).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_source_streams_and_fingerprints() {
        let a = MemorySource::new(vec![("x".into(), vec![1, 2])]);
        let b = MemorySource::new(vec![("x".into(), vec![1, 3])]);
        assert_ne!(a.descriptor(), b.descriptor(), "bytecode edits change the descriptor");
        let items: Vec<_> = a.map(|r| r.unwrap()).collect();
        assert_eq!(items, vec![SourceContract { id: "x".into(), bytecode: vec![1, 2] }]);
    }

    #[test]
    fn corpus_source_matches_generate() {
        let cfg = PopulationConfig { size: 12, seed: 5, ..Default::default() };
        let pop = corpus::Population::generate(&cfg);
        let streamed: Vec<_> = CorpusSource::new(cfg).map(|r| r.unwrap()).collect();
        assert_eq!(streamed.len(), 12);
        for (s, c) in streamed.iter().zip(&pop.contracts) {
            assert_eq!(s.bytecode, c.bytecode);
            assert_eq!(s.id, format!("{}#{}", c.family, c.id));
        }
    }

    #[test]
    fn chained_source_concatenates_and_joins_descriptors() {
        let a = MemorySource::new(vec![("a".into(), vec![0])]);
        let b = MemorySource::new(vec![("b".into(), vec![1])]);
        let chained = ChainedSource::new(vec![Box::new(a), Box::new(b)]);
        assert!(chained.descriptor().contains('+'));
        let ids: Vec<String> = chained.map(|r| r.unwrap().id).collect();
        assert_eq!(ids, vec!["a", "b"]);
    }

    #[test]
    fn parse_hex_decodes_with_and_without_prefix() {
        assert_eq!(parse_hex("0x6001fF"), Ok(vec![0x60, 0x01, 0xff]));
        assert_eq!(parse_hex("6000"), Ok(vec![0x60, 0x00]));
        assert_eq!(parse_hex(""), Ok(vec![]));
        assert!(parse_hex("600").is_err(), "odd length");
    }

    #[test]
    fn parse_hex_rejects_multibyte_characters_without_panicking() {
        // `€` is three UTF-8 bytes; byte-offset slicing would split it.
        let err = parse_hex("ab€c").unwrap_err();
        assert!(err.contains("non-hex-digit"), "{err}");
        assert!(parse_hex("0x€€").is_err());
    }

    #[test]
    fn parse_hex_rejects_signs_and_whitespace() {
        // A sign is not a hex digit, though `u8::from_str_radix` accepts one.
        assert!(parse_hex("+1+2").is_err());
        assert!(parse_hex("-1").is_err());
        assert!(parse_hex(" 60 ").is_err());
        assert!(parse_hex("0x0x60").is_err());
    }
}
