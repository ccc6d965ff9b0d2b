"""Frozen reference lexers for the differential tests.

These are verbatim copies of the character-at-a-time ``Scanner``,
``XMLParser``, ``DTDParser`` and SQL ``tokenize`` that the bulk
scanners in ``repro.xmlkit``, ``repro.dtd`` and ``repro.ordb.sql``
replaced; only their imports were rewritten so they run side by side
with the library.  They step one character per call and track
line/column eagerly, which makes them slow but obviously right.  Do not
edit them to make a differential test pass: a disagreement is a bug in
the library (or a deliberate behaviour change the generators exclude).
"""
