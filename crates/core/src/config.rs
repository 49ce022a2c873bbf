//! Federated-learning configuration.

use rhychee_par::Parallelism;

use crate::error::FlError;

/// Feature-encoder selection for HDC clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncoderKind {
    /// Pick by dataset shape: RBF for image-like inputs (the paper's
    /// MNIST choice), random projection otherwise (the HAR choice).
    #[default]
    Auto,
    /// Random-projection (sign) encoding.
    RandomProjection,
    /// RBF (cosine) encoding.
    Rbf,
}

/// Model-aggregation strategy.
///
/// The paper adopts FedAvg (Eq. 2) and names FedProx/FedNova as future
/// work; both extensions are implemented for the plaintext pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Aggregation {
    /// Uniform federated averaging (McMahan et al.).
    #[default]
    FedAvg,
    /// FedAvg plus a client-side proximal pull toward the global model
    /// with strength `mu` (Li et al.).
    FedProx {
        /// Proximal coefficient μ.
        mu: f32,
    },
    /// Normalized averaging weighting each update by its local step count
    /// (Wang et al.).
    FedNova,
}

/// Full configuration of a federated run.
///
/// Build with [`FlConfig::builder`]; defaults mirror the paper's setup
/// (D = 2000, Dirichlet α = 0.5, FedAvg, 5 local epochs, OnlineHD
/// bundling on the first round with lr = 5 refinement).
///
/// # Examples
///
/// ```
/// use rhychee_core::config::FlConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = FlConfig::builder().clients(10).rounds(5).hd_dim(2000).build()?;
/// assert_eq!(cfg.clients, 10);
/// assert_eq!(cfg.local_epochs, 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlConfig {
    /// Number of federated clients P.
    pub clients: usize,
    /// Global aggregation rounds.
    pub rounds: usize,
    /// Local training epochs per round.
    pub local_epochs: usize,
    /// HDC hypervector dimension D.
    pub hd_dim: usize,
    /// HDC learning rate.
    pub lr: f32,
    /// Dirichlet concentration for the non-IID partition.
    pub dirichlet_alpha: f64,
    /// Fraction of clients participating per round (1.0 = all).
    pub participation: f64,
    /// Encoder selection.
    pub encoder: EncoderKind,
    /// Aggregation strategy.
    pub aggregation: Aggregation,
    /// L2-normalize local models before upload (off by default: raw
    /// class-vector averaging preserves the balance between global
    /// knowledge and local updates; normalization is kept as an ablation).
    pub normalize: bool,
    /// Parallelism degree for batch encoding, the FHE kernels, and
    /// aggregation (`Auto` = all cores; purely a scheduling knob —
    /// outputs are bit-identical for every degree).
    pub parallelism: Parallelism,
    /// Master seed (all randomness derives from it).
    pub seed: u64,
}

impl FlConfig {
    /// Starts a builder with paper defaults.
    pub fn builder() -> FlConfigBuilder {
        FlConfigBuilder::default()
    }

    /// Validates cross-field constraints.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] for zero counts or out-of-range
    /// fractions.
    pub fn validate(&self) -> Result<(), FlError> {
        if self.clients == 0 {
            return Err(FlError::InvalidConfig("clients must be positive".into()));
        }
        if self.rounds == 0 {
            return Err(FlError::InvalidConfig("rounds must be positive".into()));
        }
        if self.local_epochs == 0 {
            return Err(FlError::InvalidConfig("local_epochs must be positive".into()));
        }
        if self.hd_dim == 0 {
            return Err(FlError::InvalidConfig("hd_dim must be positive".into()));
        }
        if self.lr <= 0.0 || self.lr.is_nan() {
            return Err(FlError::InvalidConfig("learning rate must be positive".into()));
        }
        if self.dirichlet_alpha <= 0.0 || self.dirichlet_alpha.is_nan() {
            return Err(FlError::InvalidConfig("dirichlet_alpha must be positive".into()));
        }
        if !(0.0 < self.participation && self.participation <= 1.0) {
            return Err(FlError::InvalidConfig("participation must be in (0, 1]".into()));
        }
        Ok(())
    }
}

/// Builder for [`FlConfig`].
#[derive(Debug, Clone)]
pub struct FlConfigBuilder {
    config: FlConfig,
}

impl Default for FlConfigBuilder {
    fn default() -> Self {
        FlConfigBuilder {
            config: FlConfig {
                clients: 10,
                rounds: 10,
                local_epochs: 5,
                hd_dim: 2000,
                lr: 5.0,
                dirichlet_alpha: 0.5,
                participation: 1.0,
                encoder: EncoderKind::Auto,
                aggregation: Aggregation::FedAvg,
                normalize: false,
                parallelism: Parallelism::Auto,
                seed: 0,
            },
        }
    }
}

impl FlConfigBuilder {
    /// Sets the client count P.
    pub fn clients(mut self, clients: usize) -> Self {
        self.config.clients = clients;
        self
    }

    /// Sets the number of global rounds.
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.config.rounds = rounds;
        self
    }

    /// Sets local epochs per round.
    pub fn local_epochs(mut self, epochs: usize) -> Self {
        self.config.local_epochs = epochs;
        self
    }

    /// Sets the hypervector dimension D.
    pub fn hd_dim(mut self, dim: usize) -> Self {
        self.config.hd_dim = dim;
        self
    }

    /// Sets the HDC learning rate.
    pub fn lr(mut self, lr: f32) -> Self {
        self.config.lr = lr;
        self
    }

    /// Sets the Dirichlet concentration α.
    pub fn dirichlet_alpha(mut self, alpha: f64) -> Self {
        self.config.dirichlet_alpha = alpha;
        self
    }

    /// Sets the per-round participation fraction.
    pub fn participation(mut self, fraction: f64) -> Self {
        self.config.participation = fraction;
        self
    }

    /// Sets the encoder kind.
    pub fn encoder(mut self, encoder: EncoderKind) -> Self {
        self.config.encoder = encoder;
        self
    }

    /// Sets the aggregation strategy.
    pub fn aggregation(mut self, aggregation: Aggregation) -> Self {
        self.config.aggregation = aggregation;
        self
    }

    /// Enables or disables pre-upload L2 normalization.
    pub fn normalize(mut self, normalize: bool) -> Self {
        self.config.normalize = normalize;
        self
    }

    /// Sets the unified parallelism degree used by HDC batch encoding,
    /// the CKKS kernels, and aggregation.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.config.parallelism = parallelism;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] if validation fails.
    pub fn build(self) -> Result<FlConfig, FlError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let cfg = FlConfig::builder().build().expect("valid defaults");
        assert_eq!(cfg.hd_dim, 2000);
        assert_eq!(cfg.dirichlet_alpha, 0.5);
        assert_eq!(cfg.aggregation, Aggregation::FedAvg);
        assert_eq!(cfg.participation, 1.0);
        assert!(!cfg.normalize);
    }

    #[test]
    fn builder_sets_fields() {
        let cfg = FlConfig::builder()
            .clients(100)
            .rounds(15)
            .local_epochs(3)
            .hd_dim(4000)
            .lr(0.5)
            .dirichlet_alpha(0.1)
            .participation(0.2)
            .encoder(EncoderKind::Rbf)
            .aggregation(Aggregation::FedProx { mu: 0.01 })
            .normalize(false)
            .parallelism(Parallelism::Fixed(4))
            .seed(42)
            .build()
            .expect("valid");
        assert_eq!(cfg.clients, 100);
        assert_eq!(cfg.parallelism, Parallelism::Fixed(4));
        assert_eq!(cfg.encoder, EncoderKind::Rbf);
        assert_eq!(cfg.aggregation, Aggregation::FedProx { mu: 0.01 });
        assert!(!cfg.normalize);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(FlConfig::builder().clients(0).build().is_err());
        assert!(FlConfig::builder().rounds(0).build().is_err());
        assert!(FlConfig::builder().hd_dim(0).build().is_err());
        assert!(FlConfig::builder().lr(0.0).build().is_err());
        assert!(FlConfig::builder().lr(-1.0).build().is_err());
        assert!(FlConfig::builder().dirichlet_alpha(0.0).build().is_err());
        assert!(FlConfig::builder().participation(0.0).build().is_err());
        assert!(FlConfig::builder().participation(1.5).build().is_err());
        assert!(FlConfig::builder().local_epochs(0).build().is_err());
    }

    #[test]
    fn default_parallelism_is_auto() {
        let cfg = FlConfig::builder().build().expect("valid");
        assert_eq!(cfg.parallelism, Parallelism::Auto);
    }
}
