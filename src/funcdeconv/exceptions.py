"""Exception and warning types shared across the package."""


class FuncDeconvError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FuncDeconvError):
    """Invalid configuration: bad grid shape, unknown name, out-of-range parameter."""


class IllPosedKernel(FuncDeconvError):
    """A kernel Fourier coefficient needed by the estimator is exactly zero.

    Carries the offending profile index and integer frequency.
    """

    def __init__(self, profile: int, frequency: int):
        self.profile = int(profile)
        self.frequency = int(frequency)
        super().__init__(
            f"kernel coefficient g_m(u_l) is zero at profile l={self.profile}, "
            f"frequency m={self.frequency}; the deconvolution ratio is undefined there"
        )


class InsufficientRange(FuncDeconvError):
    """Too few usable frequencies to fit the ill-posedness exponent."""


class LevelTooCoarse(FuncDeconvError):
    """Requested wavelet level below the coarsest supported level."""


class LevelTooFine(FuncDeconvError):
    """Requested wavelet level whose frequency band does not fit the grid."""


class RegimeWarning(UserWarning):
    """Smoothness parameters fall outside the regime the rate formulas assume."""
