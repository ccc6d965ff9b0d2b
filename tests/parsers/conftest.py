"""``--hypothesis-profile=parser-fuzz`` runs the differential tests with
many more generated inputs (the CI ``parser-fuzz`` job uses it)."""

from hypothesis import settings

settings.register_profile("parser-fuzz", max_examples=2000)
