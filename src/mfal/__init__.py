"""Exact computer algebra for modular forms and the Lie algebras they span.

Two layers.  The algebra half imports nothing from the q-series half:
  poly          the one polynomial kernel and the one canonical step
  sparse        Sparse, the one polynomial ring over Q, and its fused dot
  linalg        exact dense matrices and elimination over any ring
  liealg        root systems, Chevalley bases, graded sl2 triples
  sl2           Sym^n of sl2, its functor on 2x2 matrices, and unipotents,
                the closed-form exp(s E) and exp(t F)
  alia          weight-zero bracket tables over C[j], two-route certified
  cyclotomic    the fields Q(zeta_n) of the polyhedral pole sets, on Sparse
  loopext       polyhedral loop algebras, residue cocycles, Onsager
The q-series half realises it by forms:
  qseries       truncated q-expansions over Q with rational exponents
  modforms      the level-one forms, theta constants, lambda, and the one
                store of named forms
  congruence    the forms of Gamma(2) to Gamma(5), built on the first request
  derivations   the Serre derivative and the derivation delta
  numeric       the float surface: series at a point, S and T laws, `mfal eval`
  quasimodular  the polynomial ring Q[tau, E2, E4, E6, 1/(2 pi i)]
  vvmf          the intertwiner Phi_n and Hilbert series
Above both:
  checks        the suites of `mfal verify`: registry, identity table, runner
  checks_<s>    the checks of suite s, importing only the modules s runs
  cli           the `mfal` command

RESIDUE_TABLE lives here, where both halves read it: the bracket cocycles of
`mfal.alia` and the generators F_k of `mfal.modforms`.
"""

__version__ = "0.1.0"

#: (n4, n6) of the weight-k generator Delta^l E4^n4 E6^n6, keyed by k mod 12:
#: the residue map 2Z/12Z -> Z/3Z x Z/2Z.
RESIDUE_TABLE = {0: (0, 0), 4: (1, 0), 6: (0, 1), 8: (2, 0), 10: (1, 1), 2: (2, 1)}
