"""Measurement: sample collection and summary statistics."""
