"""Computational kernel for finite ruptured simplicial structures.

The pieces, bottom up: face-map-only complexes with exhaustive horn
machinery (``simplicial``), coherence/gap annotation under the Exclusion
law with the three-way horn classification (``ruptured``), lifting
problems and transport over a projection (``fibration``), finite covering
models with monodromy as gap structure (``covering``), resource-annotated
derivability certificates (``derivability``), a polarity-tagged witness
store (``judgments``), and the JSON document layer plus CLI (``documents``,
``cli``). Each public name is imported from its module, for example
``from rupture_kit.covering import monodromy``.
"""
