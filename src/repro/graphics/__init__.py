"""Functional graphics pipeline: layers, lens, ATW, composition, fusion.

Its reader is the functional check of the paper's Eq. (4):
``tests/graphics/test_filters.py`` checks
:func:`~repro.graphics.unified_filter.unified_filter` against sequential
compose + ATW, and checks the Fig. 11 bound-tile map of
:func:`~repro.graphics.unified_filter.classify_tiles_functional`.
The simulator times UCA with :mod:`repro.core.uca` instead.
"""
