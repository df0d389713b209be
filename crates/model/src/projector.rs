//! Input/output projectors.
//!
//! Figure 1: the encoder's representation is converted to LLM tokens by an
//! *input projector*, and the LLM's hidden states are converted to generator
//! conditioning by an *output projector*. The common implementation (and the
//! one the paper's Table 1 models use) is a 2-layer MLP; DistTrain co-locates
//! the projector with the adjacent encoder/generator and replicates it as
//! needed (§4.1).

/// A two-layer MLP projector between component hidden spaces.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectorConfig {
    /// Input width (producer module's hidden size).
    pub in_dim: u64,
    /// Hidden width of the MLP.
    pub mid_dim: u64,
    /// Output width (consumer module's hidden size).
    pub out_dim: u64,
}

impl ProjectorConfig {
    /// Build the standard projector between two hidden widths: the MLP's
    /// hidden layer matches the larger side.
    pub fn between(in_dim: u64, out_dim: u64) -> Self {
        ProjectorConfig {
            in_dim,
            mid_dim: in_dim.max(out_dim),
            out_dim,
        }
    }

    /// Parameter count.
    pub fn params(&self) -> u64 {
        self.in_dim * self.mid_dim + self.mid_dim * self.out_dim
    }

    /// Forward FLOPs for `tokens` tokens.
    pub fn flops_forward(&self, tokens: u64) -> f64 {
        2.0 * tokens as f64 * (self.in_dim * self.mid_dim + self.mid_dim * self.out_dim) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_and_flops_match_hand_math() {
        let p = ProjectorConfig {
            in_dim: 10,
            mid_dim: 20,
            out_dim: 30,
        };
        assert_eq!(p.params(), 10 * 20 + 20 * 30);
        assert_eq!(p.flops_forward(5), 2.0 * 5.0 * 800.0);
    }

    #[test]
    fn between_uses_larger_side_as_hidden() {
        let p = ProjectorConfig::between(1280, 4096);
        assert_eq!(p.mid_dim, 4096);
        let q = ProjectorConfig::between(4096, 1024);
        assert_eq!(q.mid_dim, 4096);
    }
}
