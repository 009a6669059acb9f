"""Transport with power-law trapping and its fractional-diffusion limit.

The package computes time-domain particle densities three ways: a
discrete-ordinates solution of the trapped transport equation inverted
numerically from the Laplace domain, a time-fractional diffusion
approximation inverted from its closed-form Laplace transform on the
same contour, and the classical diffusion kernel as a baseline. The
discrete-ordinates spectra of a whole contour come from one call of
`transport.spectra`, the only spectrum entry point. A comparison
harness drives all three over shared scenarios and emits CSV tables and
gnuplot scripts.

Callers import from the modules; the package itself imports none of them.
"""

__version__ = "0.1.0"
